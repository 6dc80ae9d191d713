#include "gsn/container/management_interface.h"

#include "gsn/container/operator_resources.h"
#include "gsn/util/strings.h"

namespace gsn::container {

namespace {

constexpr char kBlank[] = " \t\r\n";

/// Splits the first word off `text`; empty when none is left.
std::string_view NextWord(std::string_view* text) {
  const size_t start = text->find_first_not_of(kBlank);
  if (start == std::string_view::npos) {
    *text = {};
    return {};
  }
  const size_t end = text->find_first_of(kBlank, start);
  const std::string_view word = text->substr(start, end - start);
  *text = end == std::string_view::npos ? std::string_view()
                                         : text->substr(end);
  return word;
}

/// The number of words of `verb` if they all open `line`
/// (case-insensitively), else 0; `rest` gets what follows them.
size_t MatchVerb(std::string_view verb, std::string_view line,
                 std::string_view* rest) {
  size_t words = 0;
  for (std::string_view want = NextWord(&verb); !want.empty();
       want = NextWord(&verb)) {
    if (StrToLower(NextWord(&line)) != want) return 0;
    ++words;
  }
  *rest = line;
  return words;
}

/// Reads `row`'s arguments from the words after its verb, in order.
Status BindWords(const Resource& row, std::string_view rest, Call* call) {
  call->args.resize(row.args.size());
  for (size_t i = 0; i < row.args.size(); ++i) {
    const Arg& arg = row.args[i];
    ArgValue& value = call->args[i];
    if (rest.find_first_not_of(kBlank) == std::string_view::npos) break;
    if (arg.kind == ArgKind::kText) {
      value.present = true;
      value.text = StrTrim(rest);
      rest = {};
      break;
    }
    if (arg.kind == ArgKind::kPairs) {
      for (std::string_view word = NextWord(&rest); !word.empty();
           word = NextWord(&rest)) {
        const size_t eq = word.find('=');
        if (eq == std::string_view::npos) {
          return Status::InvalidArgument("usage: " + row.usage());
        }
        call->pairs[std::string(word.substr(0, eq))] = word.substr(eq + 1);
      }
      break;
    }
    std::string_view after = rest;
    const std::string_view word = NextWord(&after);
    if (arg.kind == ArgKind::kFlag && StrToLower(word) != arg.name) continue;
    value.present = true;
    value.text = word;
    rest = after;
  }
  if (rest.find_first_not_of(kBlank) != std::string_view::npos) {
    return Status::InvalidArgument("usage: " + row.usage());
  }
  return CheckArgs(row, /*http=*/false, call);
}

std::string ErrorText(const Status& status) {
  return "ERROR: " + status.ToString() + "\n";
}

}  // namespace

ManagementInterface::ManagementInterface(Container* container)
    : container_(container) {}

std::string ManagementInterface::Execute(const std::string& command_line) {
  const std::string line = StrTrim(command_line);
  if (line.empty()) return "";
  // The longest verb opening the line wins; rows sharing it ("status"
  // and "status <name>") are tried in table order.
  const std::vector<Resource>& rows = OperatorResources();
  std::string_view rest;
  size_t longest = 0;
  for (const Resource& row : rows) {
    longest = std::max(longest, MatchVerb(row.verb, line, &rest));
  }
  if (longest == 0) {
    std::string_view words = line;
    return ErrorText(Status::NotFound("unknown command '" +
                                      StrToLower(NextWord(&words)) +
                                      "' (try: help)"));
  }
  Status unbound;
  for (const Resource& row : rows) {
    if (MatchVerb(row.verb, line, &rest) != longest) continue;
    Call call;
    call.container = container_;
    call.api_key = api_key_;
    const Status bound = BindWords(row, rest, &call);
    if (!bound.ok()) {
      if (unbound.ok()) unbound = bound;
      continue;
    }
    Result<Doc> doc = row.handler(call);
    if (!doc.ok()) return ErrorText(doc.status());
    return RenderText(*doc);
  }
  return ErrorText(unbound);
}

}  // namespace gsn::container
