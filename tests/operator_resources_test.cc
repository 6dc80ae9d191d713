// Tests for the operator resource table (operator_resources.h): the two
// document renderers, and the table itself as both planes see it.

#include "gsn/container/operator_resources.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gsn/container/federation.h"
#include "gsn/container/management_interface.h"
#include "gsn/container/web_interface.h"

namespace gsn::container {
namespace {

Doc Sample() {
  return Doc::Object()
      .Add("name", "a \"b\"\n")
      .Add("count", int64_t{-3})
      .Add("share", 0.25)
      .Add("ok", true)
      .Add("none", Doc())
      .Add("totals", Doc::Object().Add("x", 1).Add("y", "z"))
      .Add("items", Doc::Array()
                        .Push(Doc::Object().Add("k", 1).Add(
                            "tags", Doc::Array().Push("p").Push("q")))
                        .Push("bare"))
      .Add("empty", Doc::Array());
}

TEST(DocRenderTest, JsonKeepsOrderEscapesAndFormatsNumbers) {
  EXPECT_EQ(RenderJson(Sample()),
            R"({"name":"a \"b\"\n","count":-3,"share":0.250000,"ok":true,)"
            R"("none":null,"totals":{"x":1,"y":"z"},)"
            R"("items":[{"k":1,"tags":["p","q"]},"bare"],"empty":[]})");
  EXPECT_EQ(RenderJson(Doc::Array()), "[]");
  EXPECT_EQ(RenderJson(Doc::Text("x\"y", "text/plain")), R"("x\"y")");
}

TEST(DocRenderTest, TextRendersLinesAndEndsInOneNewline) {
  EXPECT_EQ(RenderText(Sample()),
            "name: a \"b\"\n\n"
            "count: -3\n"
            "share: 0.250000\n"
            "ok: true\n"
            "none: null\n"
            "totals:\n  x: 1\n  y: z\n"
            "items:\n  k=1 tags=[p q]\n  bare\n"
            "empty: (none)\n");
  EXPECT_EQ(RenderText(Doc::Array()), "(none)\n");
  EXPECT_EQ(RenderText(Doc::Array().Push(Doc::Object().Add("a", 1).Add(
                "b", Doc::Object().Add("c", "d")))),
            "a=1 b={c=d}\n");
  EXPECT_EQ(RenderText(Doc::Text("plan\n\n\n", "text/plain")), "plan\n");
  EXPECT_EQ(RenderText(Doc::Text("", "text/plain")), "\n");
}

TEST(ArgKindTest, CountsAndNumbersAreRangeChecked) {
  const Arg count{"n", ArgKind::kCount};
  const Arg rate{"rate", ArgKind::kNumber, false, 0, 1};
  for (const char* text : {"-1", "x", "1.5", "99999999999999999999", ""}) {
    ArgValue value;
    value.text = text;
    EXPECT_FALSE(ParseArg(count, true, &value).ok()) << text;
  }
  ArgValue value;
  value.text = "0012";
  ASSERT_TRUE(ParseArg(count, true, &value).ok());
  EXPECT_EQ(value.count, 12);
  for (const char* text : {"nan", "inf", "-0.1", "1.01", "x"}) {
    value.text = text;
    const Status status = ParseArg(rate, false, &value);
    EXPECT_FALSE(status.ok()) << text;
    EXPECT_NE(status.message().find("<rate>"), std::string::npos);
  }
  value.text = "0.5";
  ASSERT_TRUE(ParseArg(rate, true, &value).ok());
  EXPECT_EQ(value.number, 0.5);
}

/// Every HTTP row answers its own method on a federated node (so the
/// chaos rows have a decorator) with neither 404 nor 405, and every row
/// is listed by `help`.
TEST(OperatorResourceTableTest, EveryRowIsServedAndListed) {
  Federation fed(5);
  Container* node = *fed.AddNode("node");
  ASSERT_TRUE(node->Deploy("<virtual-sensor name=\"s\">"
                           "<output-structure>"
                           "<field name=\"seq\" type=\"integer\"/>"
                           "</output-structure>"
                           "<input-stream name=\"in\">"
                           "<stream-source alias=\"src\" storage-size=\"1\">"
                           "<address wrapper=\"generator\">"
                           "<predicate key=\"interval-ms\" val=\"100\"/>"
                           "</address>"
                           "<query>select seq from wrapper</query>"
                           "</stream-source>"
                           "<query>select * from src</query>"
                           "</input-stream></virtual-sensor>")
                  .ok());
  ASSERT_TRUE(fed.RunFor(kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  WebInterface web(node);
  const std::string help = ManagementInterface(node).Execute("help");

  std::set<std::string> routes;
  std::set<std::string> usages;
  const Resource* drain = nullptr;
  const auto serve = [&web](const Resource& row) {
    network::HttpRequest request;
    request.method = row.method;
    request.path = row.route();
    if (row.prefix()) {
      request.path = request.path.substr(0, request.path.find('<')) + "s";
    }
    const network::HttpResponse response = web.Handle(request);
    EXPECT_NE(response.status, 404) << request.path << " " << response.body;
    EXPECT_NE(response.status, 405) << request.path << " " << response.body;
  };
  for (const Resource& row : OperatorResources()) {
    if (*row.method != '\0') {
      EXPECT_TRUE(routes.insert(std::string(row.method) + row.route()).second)
          << row.route();
      if (row.route() == "/api/v1/drain") {
        drain = &row;  // last: it stops the node
      } else {
        serve(row);
      }
    }
    const std::string line =
        *row.verb != '\0' ? row.usage()
                          : std::string(row.method) + " " + row.route();
    EXPECT_TRUE(usages.insert(line).second) << line;
    EXPECT_NE(help.find(line + ": " + row.help), std::string::npos) << line;
  }
  ASSERT_NE(drain, nullptr);
  serve(*drain);
}

}  // namespace
}  // namespace gsn::container
