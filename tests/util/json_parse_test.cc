#include "util/json.h"

#include <gtest/gtest.h>

namespace flowsched {
namespace {

TEST(ParseJsonTest, ObjectsArraysAndScalars) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"name": "run", "ok": true, "off": false, "nothing": null,
          "count": 12, "ratio": -0.75, "exp": 1.5e3,
          "list": [1, "two", [3]], "nested": {"a": {"b": 2}}})",
      doc, &error))
      << error;
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  EXPECT_EQ(doc.GetString("name"), "run");
  EXPECT_TRUE(doc.GetBool("ok"));
  EXPECT_FALSE(doc.GetBool("off", true));
  ASSERT_NE(doc.Find("nothing"), nullptr);
  EXPECT_EQ(doc.Find("nothing")->type, JsonValue::Type::kNull);
  EXPECT_EQ(doc.GetInt("count"), 12);
  EXPECT_DOUBLE_EQ(doc.GetNumber("ratio"), -0.75);
  EXPECT_DOUBLE_EQ(doc.GetNumber("exp"), 1500.0);
  const JsonValue* list = doc.Find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->type, JsonValue::Type::kArray);
  ASSERT_EQ(list->items.size(), 3u);
  EXPECT_EQ(list->items[1].string_value, "two");
  ASSERT_EQ(list->items[2].items.size(), 1u);
  const JsonValue* nested = doc.Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->Find("a")->GetInt("b"), 2);
  // Absent keys / wrong types fall back to defaults.
  EXPECT_EQ(doc.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(doc.GetInt("name", -1), -1);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(ParseJsonTest, U64RoundTripsThroughRawText) {
  // Seeds and spec hashes are full 64-bit values; a double-only parser
  // would corrupt them above 2^53.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"seed": 10849834120722675728})", doc, &error))
      << error;
  EXPECT_EQ(doc.GetU64("seed"), 10849834120722675728ULL);
  EXPECT_EQ(doc.Find("seed")->raw, "10849834120722675728");
}

TEST(ParseJsonTest, StringEscapes) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"s": "a\"b\\c\/d\ne\tf", "u": "café"})", doc, &error))
      << error;
  EXPECT_EQ(doc.GetString("s"), "a\"b\\c/d\ne\tf");
  EXPECT_EQ(doc.GetString("u"), "caf\xc3\xa9");  // é -> UTF-8.
}

TEST(ParseJsonTest, MembersKeepSourceOrder) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"z": 1, "a": 2, "m": 3})", doc, &error));
  ASSERT_EQ(doc.members.size(), 3u);
  EXPECT_EQ(doc.members[0].first, "z");
  EXPECT_EQ(doc.members[1].first, "a");
  EXPECT_EQ(doc.members[2].first, "m");
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(ParseJson("", doc, &error));
  EXPECT_FALSE(ParseJson("{", doc, &error));
  EXPECT_FALSE(ParseJson("{\"a\": }", doc, &error));
  EXPECT_FALSE(ParseJson("{\"a\": 1,}", doc, &error));
  EXPECT_FALSE(ParseJson("[1, 2", doc, &error));
  EXPECT_FALSE(ParseJson("\"unterminated", doc, &error));
  EXPECT_FALSE(ParseJson("{\"a\": 1.2.3}", doc, &error));  // Bad number.
  EXPECT_FALSE(ParseJson("{\"a\": nul}", doc, &error));
  EXPECT_FALSE(ParseJson("{} trailing", doc, &error));   // Trailing data.
  EXPECT_FALSE(ParseJson("{\"a\": 1} {\"b\": 2}", doc, &error));
}

TEST(ParseJsonTest, ErrorsNameTheirLineAndColumn) {
  JsonValue doc;
  std::string error;
  // A missing ':' on line 3: the parser stops at the 2 in column 9.
  EXPECT_FALSE(ParseJson("{\n  \"a\": 1,\n  \"b\"   2,\n  \"c\": 3\n}", doc,
                         &error));
  EXPECT_EQ(error, "json line 3, column 9: expected ':' after \"b\"");
  // Trailing data after a complete document, on its own line.
  EXPECT_FALSE(ParseJson("[1,\n 2]\n\n  x", doc, &error));
  EXPECT_EQ(error, "json line 4, column 3: trailing data");
  // An error on the first line counts columns from 1.
  EXPECT_FALSE(ParseJson("{\"a\": nul}", doc, &error));
  EXPECT_EQ(error.rfind("json line 1, column 7: ", 0), 0u) << error;
  // End of input inside an unterminated array, after a trailing newline.
  EXPECT_FALSE(ParseJson("[1,\n", doc, &error));
  EXPECT_EQ(error.rfind("json line 2, column 1: ", 0), 0u) << error;
}

TEST(ParseJsonTest, DepthIsBounded) {
  // The parser is recursive-descent; unbounded nesting must fail cleanly
  // instead of overflowing the stack.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(ParseJson(deep, doc, &error));
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
}

TEST(ParseJsonTest, RoundTripsOwnEmitters) {
  // What the write-side helpers emit, the parser reads back.
  const std::string doc_text =
      "{" + JsonStr("name", "a \"quoted\"\nvalue") +
      ", \"v\": " + JsonNum(0.30000000000000004) + "}";
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(doc_text, doc, &error)) << error;
  EXPECT_EQ(doc.GetString("name"), "a \"quoted\"\nvalue");
  EXPECT_NEAR(doc.GetNumber("v"), 0.3, 1e-9);
}

}  // namespace
}  // namespace flowsched
