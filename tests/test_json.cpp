#include "util/json.hpp"

#include <gtest/gtest.h>

namespace netsmith::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_EQ(JsonValue::parse("42").as_int(), 42);
  EXPECT_EQ(JsonValue::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntsStayInts) {
  // "2" is an int token, "2.0" is a double token; both survive a dump/parse
  // cycle with their type (round-trip type stability).
  const auto i = JsonValue::parse("2");
  EXPECT_EQ(i.type(), JsonValue::Type::kInt);
  EXPECT_EQ(i.dump(), "2\n");
  const auto d = JsonValue::parse("2.0");
  EXPECT_EQ(d.type(), JsonValue::Type::kDouble);
  EXPECT_EQ(d.dump(), "2.0\n");
}

TEST(JsonParse, NestedDocument) {
  const auto v = JsonValue::parse(
      R"({"a": [1, 2, 3], "b": {"c": true, "d": "x"}, "e": 1.25})");
  EXPECT_EQ(v.at("a").items().size(), 3u);
  EXPECT_EQ(v.at("a").items()[1].as_int(), 2);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_EQ(v.at("b").at("d").as_string(), "x");
  EXPECT_DOUBLE_EQ(v.at("e").as_double(), 1.25);
  EXPECT_EQ(v.find("zzz"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  const auto v = JsonValue::parse(R"("a\"b\\c\nd\tA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\tA");
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} x"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,\"a\":2}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("nan"), std::runtime_error);
}

TEST(JsonDump, RoundTripByteStable) {
  // Objects keep insertion order and doubles dump shortest-exact, so a
  // dump -> parse -> dump cycle is byte-identical.
  JsonValue o = JsonValue::object();
  o.set("name", JsonValue::string("x \"y\" \n z"));
  o.set("pi", JsonValue::number(3.141592653589793));
  o.set("tiny", JsonValue::number(1e-300));
  o.set("neg", JsonValue::integer(-123456789012345LL));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::integer(1));
  arr.push_back(JsonValue::number(0.1));
  arr.push_back(JsonValue::boolean(false));
  o.set("arr", std::move(arr));
  JsonValue inner = JsonValue::object();
  inner.set("empty_arr", JsonValue::array());
  inner.set("empty_obj", JsonValue::object());
  o.set("inner", std::move(inner));

  const std::string once = o.dump();
  const std::string twice = JsonValue::parse(once).dump();
  EXPECT_EQ(once, twice);
}

TEST(JsonDump, DoubleExactness) {
  for (double d : {0.1, 1.0 / 3.0, 2.0, 1e17, 5e-324, -0.0}) {
    const std::string s = JsonValue::number(d).dump();
    EXPECT_DOUBLE_EQ(JsonValue::parse(s).as_double(), d) << s;
  }
}

TEST(JsonDump, CompactIsSingleLineAndExact) {
  const std::string text =
      R"({"name": "x \"q\"", "n": -3, "d": 0.1, "flag": true, "nil": null,)"
      R"( "arr": [1, 2.5, "s"], "obj": {"k": [{}]}, "empty": []})";
  const JsonValue v = JsonValue::parse(text);
  const std::string compact = v.dump_compact();
  // One line, no pretty-printing whitespace, no trailing newline.
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_EQ(compact,
            "{\"name\":\"x \\\"q\\\"\",\"n\":-3,\"d\":0.1,\"flag\":true,"
            "\"nil\":null,\"arr\":[1,2.5,\"s\"],\"obj\":{\"k\":[{}]},"
            "\"empty\":[]}");
  // Numbers keep dump()'s shortest-round-trip formatting: re-parsing and
  // pretty-printing matches the original's dump exactly.
  EXPECT_EQ(JsonValue::parse(compact).dump(), v.dump());
}

TEST(JsonValue, TypeErrors) {
  EXPECT_THROW(JsonValue::integer(1).as_string(), std::runtime_error);
  EXPECT_THROW(JsonValue::string("x").as_int(), std::runtime_error);
  EXPECT_THROW(JsonValue::number(1.5).as_int(), std::runtime_error);
  EXPECT_THROW(JsonValue::string("x").as_u64(), std::runtime_error);
  // Negative int tokens are the serialized form of large uint64 values.
  EXPECT_EQ(JsonValue::integer(-1).as_u64(), ~0ull);
  EXPECT_THROW(JsonValue::object().items(), std::runtime_error);
  EXPECT_THROW(JsonValue::array().at("k"), std::runtime_error);
}

}  // namespace
}  // namespace netsmith::util
