#ifndef GSN_CONTAINER_OPERATOR_RESOURCES_H_
#define GSN_CONTAINER_OPERATOR_RESOURCES_H_

#include <concepts>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/network/epoll_transport.h"

namespace gsn::container {

/// What every operator resource answers: an ordered JSON-shaped value.
/// Scalars (null, bool, integers, doubles) are kept rendered, since both
/// planes print them the same way; object fields keep insertion order.
/// Two opaque leaves carry bodies that already have a format: a text
/// with its content type (Prometheus, DOT, EXPLAIN, XML, CSV) and a
/// query result. Nothing parses a document back.
struct Doc {
  enum class Kind { kLiteral, kString, kArray, kObject, kText, kRows };

  // Implicit on purpose: a handler writes .Add("produced", n).
  Doc() : text("null") {}
  Doc(bool value) : text(value ? "true" : "false") {}
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  Doc(T value) : text(std::to_string(value)) {}
  Doc(double value);  // "%.6f", as the JSON surface always printed
  Doc(std::string value) : kind(Kind::kString), text(std::move(value)) {}
  Doc(const char* value) : kind(Kind::kString), text(value) {}

  static Doc Array() { return Doc(Kind::kArray); }
  static Doc Object() { return Doc(Kind::kObject); }
  static Doc Text(std::string body, const char* content_type);
  static Doc Rows(Relation relation);

  /// Appends a field to an object; returns *this for chaining.
  Doc& Add(std::string key, Doc value) &;
  Doc&& Add(std::string key, Doc value) &&;
  /// Appends an item to an array.
  Doc& Push(Doc value);

  Kind kind = Kind::kLiteral;
  /// Literal, string, or kText body.
  std::string text;
  const char* content_type = "";     // kText
  std::vector<std::string> keys;     // kObject, parallel to `items`
  std::vector<Doc> items;            // kArray items / kObject values
  std::shared_ptr<Relation> rows;    // kRows

 private:
  explicit Doc(Kind k) : kind(k) {}
};

/// The JSON renderer (the HTTP plane): no whitespace, strings escaped,
/// doubles in "%.6f", a kText leaf as a JSON string and a query result
/// through RelationToJson.
std::string RenderJson(const Doc& doc);
/// The text renderer (the console): objects as `key: value` lines (a
/// nested object or array as `key:` plus indented lines), each array
/// item as one `k=v ...` line, an empty array as `(none)`, a kText leaf
/// verbatim and a query result as Relation::ToString(50).
std::string RenderText(const Doc& doc);

/// How an argument is read. HTTP reads the query string; the console
/// reads the words after the verb.
enum class ArgKind {
  kWord,    // one word / ?name=
  kCount,   // a non-negative int64
  kNumber,  // a finite double in [min, max]
  kText,    // the rest of the console line (so the console reads no
            // argument after it) / a POST body, or ?name= on GET
  kFlag,    // the literal word `name` / ?name= with any value but 0
  kPairs,   // the remaining key=value words / every other query key
};

struct Arg {
  const char* name;
  ArgKind kind;
  bool required = false;
  double min = 0;
  double max = 0;
};

/// One parsed argument; `present` is false when the caller left it out.
struct ArgValue {
  bool present = false;
  std::string text;
  int64_t count = 0;
  double number = 0;
};

/// One call of a resource, from either plane.
struct Call {
  Container* container = nullptr;
  std::string api_key;
  /// The HTTP plane's own transport; null on the console.
  const network::EpollTransport* http = nullptr;
  std::vector<ArgValue> args;  // parallel to the row's `args`
  std::map<std::string, std::string> pairs;  // the kPairs argument
  /// ?limit=&offset= of a paged row over HTTP; the console takes all.
  size_t limit = std::string::npos;
  size_t offset = 0;
  /// A handler may answer with another status (readyz: 503).
  int http_status = 200;
};

/// One operator resource: a console verb and/or an /api/v1 route, its
/// typed arguments, one help line, and the handler that builds its
/// document. Both WebInterface and ManagementInterface are derived
/// from the one table below.
struct Resource {
  const char* verb;    // console verb words; "" = HTTP only
  const char* method;  // "GET" / "POST"; "" = console only
  /// Below /api/v1. A trailing '/' makes a prefix route whose rest of
  /// the path is the first argument ("/sensors/<name>").
  const char* path;
  std::vector<Arg> args;
  bool paged;  // a list: {"items":[...],"total":N} with ?limit=&offset=
  const char* help;
  Result<Doc> (*handler)(Call& call);

  bool prefix() const;
  /// "/api/v1/sensors/<name>", or "" for a console-only row.
  std::string route() const;
  /// "status <name>", "explain [analyze] <sql>" (the console form).
  std::string usage() const;
};

/// The table, in the order of GET /api/v1 and `help`.
const std::vector<Resource>& OperatorResources();

/// Parses the raw text of one present argument by its kind. `http`
/// picks how an error names it (`?limit=` or `<limit>`).
Status ParseArg(const Arg& arg, bool http, ArgValue* value);
/// ParseArg over every present argument of `row`, plus `required`.
Status CheckArgs(const Resource& row, bool http, Call* call);

}  // namespace gsn::container

#endif  // GSN_CONTAINER_OPERATOR_RESOURCES_H_
