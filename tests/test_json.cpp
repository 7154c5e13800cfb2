#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>

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

// The byte-at-a-time string decoder the run-copying parser replaced, as its
// oracle: decodes the string body that starts after the opening quote at
// text[1]. Returns the decoded bytes and sets `end` past the closing quote,
// or sets `error` to the message the parser throws.
std::string reference_string(const std::string& text, std::size_t& end,
                             std::string& error) {
  std::size_t pos = 1;
  std::string out;
  auto fail = [&](const char* msg) {
    error = "json parse error at byte " + std::to_string(pos) + ": " + msg;
    return std::string();
  };
  while (true) {
    if (pos >= text.size()) return fail("unterminated string");
    const char c = text[pos++];
    if (c == '"') break;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos >= text.size()) return fail("unterminated escape");
    const char e = text[pos++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos + 4 > text.size()) return fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[pos++];
          cp <<= 4;
          if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
          else return fail("bad \\u escape digit");
        }
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        break;
      }
      default: return fail("bad escape");
    }
  }
  end = pos;
  return out;
}

// Random byte strings over quotes, backslashes, escape letters, hex digits,
// raw control bytes, NULs and high bytes: the parser decodes exactly what
// the byte-at-a-time decoder does, and fails with the same message at the
// same offset.
TEST(JsonParse, StringsMatchByteAtATimeDecoder) {
  const char alphabet[] = {'a', '"', '\\', 'n', 'u', 't', '0', 'F', '/',
                           ' ', '\0', '\x01', '\x1f', '\x7f', '\xff'};
  std::mt19937_64 rng(5);
  int decoded = 0, failed = 0;
  for (int k = 0; k < 20000; ++k) {
    std::string text = "\"";
    const int len = static_cast<int>(rng() % 14);
    for (int i = 0; i < len; ++i) text += alphabet[rng() % sizeof alphabet];
    if (k % 2) text += '"';  // closed more often than chance alone
    std::size_t end = 0;
    std::string error;
    const std::string want = reference_string(text, end, error);
    if (!error.empty()) {
      ++failed;
      try {
        JsonValue::parse(text);
        ADD_FAILURE() << "accepted: " << text;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), error);
      }
    } else if (text.find_first_not_of(' ', end) == std::string::npos) {
      ++decoded;
      EXPECT_EQ(JsonValue::parse(text).as_string(), want);
    } else {
      EXPECT_THROW(JsonValue::parse(text), std::runtime_error) << text;
    }
  }
  EXPECT_GT(decoded, 1000);
  EXPECT_GT(failed, 1000);
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
