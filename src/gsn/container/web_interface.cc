#include "gsn/container/web_interface.h"

#include <cctype>
#include <cstdio>
#include <string_view>

#include "gsn/container/operator_resources.h"
#include "gsn/util/strings.h"
#include "gsn/xml/xml.h"

namespace gsn::container {

using network::HttpRequest;
using network::HttpResponse;

namespace {
constexpr char kApiPrefix[] = "/api/v1";
constexpr size_t kApiPrefixLen = sizeof(kApiPrefix) - 1;

network::EpollTransport::Options HttpTransportOptions(Container* container) {
  network::EpollTransport::Options options;
  options.metrics = container->metrics();
  options.metrics_role = "http";
  return options;
}

std::string ApiKey(const HttpRequest& request) {
  const std::string header = request.HeaderOr("x-api-key", "");
  return header.empty() ? request.QueryOr("key", "") : header;
}

/// The shared error envelope: {"error":{"code":...,"message":...}}.
HttpResponse ErrorJson(int http_status, const std::string& code,
                       const std::string& message) {
  return HttpResponse::Json(
      RenderJson(Doc::Object().Add(
          "error", Doc::Object().Add("code", code).Add("message", message))),
      http_status);
}

HttpResponse FromStatus(const Status& status) {
  const int http_status =
      status.code() == StatusCode::kNotFound           ? 404
      : status.code() == StatusCode::kPermissionDenied ? 403
      : status.code() == StatusCode::kParseError       ? 400
      : status.code() == StatusCode::kInvalidArgument  ? 400
                                                       : 500;
  return ErrorJson(http_status, StatusCodeName(status.code()),
                   status.message());
}

bool MatchesRoute(const Resource& row, std::string_view path) {
  if (*row.method == '\0') return false;
  return row.prefix() ? StrStartsWith(path, row.path) : path == row.path;
}

/// Reads `row`'s arguments from the request: the rest of a prefix
/// route's path, the POST body, or the query string.
Status BindRequest(const Resource& row, const HttpRequest& request,
                   std::string_view suffix, Call* call) {
  call->args.resize(row.args.size());
  for (size_t i = 0; i < row.args.size(); ++i) {
    const Arg& arg = row.args[i];
    ArgValue& value = call->args[i];
    if (i == 0 && row.prefix()) {
      value.present = true;
      value.text = suffix;
    } else if (arg.kind == ArgKind::kText &&
               std::string_view(row.method) == "POST") {
      value.present = !request.body.empty();
      value.text = request.body;
    } else if (arg.kind == ArgKind::kPairs) {
      call->pairs = request.query;
      call->pairs.erase("key");  // the api key is not a predicate
    } else if (auto it = request.query.find(arg.name);
               it != request.query.end()) {
      value.present = arg.kind == ArgKind::kFlag ? it->second != "0"
                                                 : !it->second.empty();
      value.text = it->second;
    }
  }
  GSN_RETURN_IF_ERROR(CheckArgs(row, /*http=*/true, call));
  if (!row.paged) return Status::OK();
  static const Arg kLimit{"limit", ArgKind::kCount};
  static const Arg kOffset{"offset", ArgKind::kCount};
  for (const Arg* arg : {&kLimit, &kOffset}) {
    ArgValue value;
    value.text = request.QueryOr(arg->name, "");
    if (value.text.empty()) continue;
    GSN_RETURN_IF_ERROR(ParseArg(*arg, /*http=*/true, &value));
    (arg == &kLimit ? call->limit : call->offset) =
        static_cast<size_t>(value.count);
  }
  return Status::OK();
}

/// The document as a response: text leaves keep their own format and
/// content type, everything else is JSON.
HttpResponse ToResponse(Doc doc, int http_status) {
  if (doc.kind != Doc::Kind::kText) {
    return HttpResponse::Json(RenderJson(doc), http_status);
  }
  HttpResponse response = HttpResponse::Text(std::move(doc.text), http_status);
  response.content_type = doc.content_type;
  return response;
}

/// A sensor name as one URL path segment: everything but the unreserved
/// characters is percent-encoded.
std::string PathSegment(std::string_view name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
        c == '.' || c == '_' || c == '~') {
      out += c;
    } else {
      char hex[4];
      std::snprintf(hex, sizeof(hex), "%%%02X", static_cast<unsigned char>(c));
      out += hex;
    }
  }
  return out;
}

HttpResponse IndexPage(const Container& container) {
  const std::string node = xml::Escape(container.node_id());
  std::string html = "<html><head><title>GSN node " + node +
                     "</title></head><body><h1>GSN node " + node +
                     "</h1><h2>Virtual sensors</h2><ul>";
  for (const std::string& name : container.ListSensors()) {
    html += "<li><a href=\"" +
            xml::Escape(std::string(kApiPrefix) + "/sensors/" +
                        PathSegment(name)) +
            "\">" + xml::Escape(name) + "</a></li>";
  }
  html += "</ul><h2>API</h2><ul>";
  for (const Resource& row : OperatorResources()) {
    if (*row.method == '\0') continue;
    html += "<li>" + std::string(row.method) + " " + xml::Escape(row.route()) +
            " &mdash; " + xml::Escape(row.help) + "</li>";
  }
  html += "</ul></body></html>";
  return HttpResponse::Html(std::move(html));
}

HttpResponse ApiIndex() {
  Doc routes = Doc::Array();
  for (const Resource& row : OperatorResources()) {
    if (*row.method == '\0') continue;
    routes.Push(
        Doc::Object().Add("method", row.method).Add("path", row.route()));
  }
  return HttpResponse::Json(RenderJson(
      Doc::Object().Add("version", "v1").Add("routes", std::move(routes))));
}
}  // namespace

WebInterface::WebInterface(Container* container)
    : container_(container), http_(HttpTransportOptions(container)) {}

Status WebInterface::Start(uint16_t port) {
  GSN_RETURN_IF_ERROR(http_.Start());
  const Status listen = http_.ListenHttp(
      port, [this](const HttpRequest& request) { return Handle(request); });
  if (!listen.ok()) http_.Stop();
  return listen;
}

void WebInterface::Stop() { http_.Stop(); }

HttpResponse WebInterface::Handle(const HttpRequest& request) {
  if (request.method == "GET" && request.path == "/") {
    return IndexPage(*container_);
  }
  const std::vector<Resource>& rows = OperatorResources();
  if (!StrStartsWith(request.path, kApiPrefix)) {
    // The unversioned aliases are retired: a path that names a known
    // resource gets a pointer to its v1 home, everything else a 404.
    for (const Resource& row : rows) {
      if (MatchesRoute(row, request.path)) {
        return ErrorJson(410, "gone",
                         "unversioned paths were removed; use " +
                             std::string(kApiPrefix) + request.path);
      }
    }
    return ErrorJson(404, "NotFound", "no such resource: " + request.path);
  }
  const std::string_view path =
      std::string_view(request.path).substr(kApiPrefixLen);
  if ((path.empty() || path == "/") && request.method == "GET") {
    return ApiIndex();
  }
  bool path_matched = path.empty() || path == "/";
  for (const Resource& row : rows) {
    if (!MatchesRoute(row, path)) continue;
    path_matched = true;
    if (request.method != row.method) continue;
    Call call;
    call.container = container_;
    call.api_key = ApiKey(request);
    call.http = &http_;
    const Status status = BindRequest(
        row, request, path.substr(std::string_view(row.path).size()), &call);
    if (!status.ok()) return FromStatus(status);
    Result<Doc> doc = row.handler(call);
    if (!doc.ok()) return FromStatus(doc.status());
    return ToResponse(*std::move(doc), call.http_status);
  }
  if (path_matched) {
    return ErrorJson(405, "MethodNotAllowed",
                     "method not allowed: " + request.method);
  }
  return ErrorJson(404, "NotFound", "no such resource: " + request.path);
}

}  // namespace gsn::container
