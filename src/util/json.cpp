#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace netsmith::util {

// ------------------------------------------------------------ JsonValue ---

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::integer(long long i) {
  JsonValue v;
  v.type_ = Type::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.type_ = Type::kDouble;
  v.dbl_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  static const char* kNames[] = {"null",   "bool",  "int",   "double",
                                 "string", "array", "object"};
  throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                           kNames[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

long long JsonValue::as_int() const {
  if (type_ != Type::kInt) type_error("int", type_);
  return int_;
}

std::uint64_t JsonValue::as_u64() const {
  // Two's-complement bit-cast: values above INT64_MAX serialize as negative
  // int tokens and round-trip exactly through this cast (64-bit seeds).
  if (type_ != Type::kInt) type_error("int", type_);
  return static_cast<std::uint64_t>(int_);
}

double JsonValue::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ != Type::kDouble) type_error("number", type_);
  return dbl_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return items_;
}

void JsonValue::push_back(JsonValue v) {
  if (type_ != Type::kArray) type_error("array", type_);
  items_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) type_error("object", type_);
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw std::runtime_error("json: missing key '" + key + "'");
  return *v;
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, old] : members_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

// -------------------------------------------------------------- dumping ---

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

namespace {

void append_double(std::string& out, double d) {
  // Shortest representation that parses back to the same double; keeps
  // spec round-trips exact. NaN/inf have no JSON form -> null.
  if (d != d || d == 1.0 / 0.0 || d == -1.0 / 0.0) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
  // Ensure the token re-parses as a double, not an int (round-trip type
  // stability for whole-valued doubles like 2.0 -> "2.0").
  std::string_view tok(buf, static_cast<std::size_t>(res.ptr - buf));
  if (tok.find('.') == std::string_view::npos &&
      tok.find('e') == std::string_view::npos &&
      tok.find('E') == std::string_view::npos)
    out += ".0";
}

void indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kInt: out += std::to_string(int_); return;
    case Type::kDouble: append_double(out, dbl_); return;
    case Type::kString: out += json_quote(str_); return;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      // Arrays of scalars print inline; arrays with any container member
      // print one element per line.
      bool scalar = true;
      for (const auto& v : items_)
        if (v.type_ == Type::kArray || v.type_ == Type::kObject) scalar = false;
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        if (scalar) {
          if (i) out += ' ';
        } else {
          out += '\n';
          indent(out, depth + 1);
        }
        items_[i].dump_to(out, depth + 1);
      }
      if (!scalar) {
        out += '\n';
        indent(out, depth);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        out += '\n';
        indent(out, depth + 1);
        out += json_quote(members_[i].first);
        out += ": ";
        members_[i].second.dump_to(out, depth + 1);
      }
      out += '\n';
      indent(out, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

void JsonValue::dump_compact_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kInt: out += std::to_string(int_); return;
    case Type::kDouble: append_double(out, dbl_); return;
    case Type::kString: out += json_quote(str_); return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        items_[i].dump_compact_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        out += json_quote(members_[i].first);
        out += ':';
        members_[i].second.dump_compact_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump_compact() const {
  std::string out;
  dump_compact_to(out);
  return out;
}

// -------------------------------------------------------------- parsing ---

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (literal("true")) return JsonValue::boolean(true);
        fail("bad literal");
      case 'f':
        if (literal("false")) return JsonValue::boolean(false);
        fail("bad literal");
      case 'n':
        if (literal("null")) return JsonValue::null();
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    if (consume('}')) return obj;
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      if (obj.find(key)) fail("duplicate key '" + key + "'");
      obj.set(key, parse_value());
      if (consume('}')) return obj;
      expect(',');
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    if (consume(']')) return arr;
    while (true) {
      arr.push_back(parse_value());
      if (consume(']')) return arr;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    const char* const begin = s_.data();
    const char* const end = begin + s_.size();
    // The next '"' at or after pos_ (end when there is none); found once and
    // reused until an escape moves pos_ past it, so scanning stays linear.
    const char* quote = nullptr;
    while (true) {
      // Copy the run up to the next '"' or '\\' with one append.
      const char* const run = begin + pos_;
      if (quote == nullptr || quote < run) {
        const void* q =
            std::memchr(run, '"', static_cast<std::size_t>(end - run));
        quote = q ? static_cast<const char*>(q) : end;
      }
      const void* b =
          std::memchr(run, '\\', static_cast<std::size_t>(quote - run));
      const char* const stop = b ? static_cast<const char*>(b) : quote;
      out.append(run, stop);
      pos_ = static_cast<std::size_t>(stop - begin);
      if (stop == end) fail("unterminated string");
      ++pos_;
      if (*stop == '"') return out;
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
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
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Encode the code point as UTF-8 (no surrogate-pair handling; the
          // basic multilingual plane covers every spec/report field).
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
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool is_int = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected value");
    const std::string tok = s_.substr(start, pos_ - start);
    if (is_int) {
      try {
        std::size_t used = 0;
        const long long v = std::stoll(tok, &used);
        if (used == tok.size()) return JsonValue::integer(v);
      } catch (const std::exception&) {
        // Positive tokens up to UINT64_MAX still land in the int slot via
        // the same bit-cast as_u64 undoes; anything wider becomes a double.
        if (tok[0] != '-') {
          try {
            std::size_t used = 0;
            const unsigned long long v = std::stoull(tok, &used);
            if (used == tok.size())
              return JsonValue::integer(static_cast<long long>(v));
          } catch (const std::exception&) {
          }
        }
      }
    }
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0') fail("bad number '" + tok + "'");
    return JsonValue::number(d);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace netsmith::util
