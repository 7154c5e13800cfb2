#pragma once
// Minimal JSON support shared by the experiment API and the perf harness.
//
// JsonValue is an ordered-object DOM with parse() and dump(). Objects keep
// insertion order, integers stay integers, and doubles are emitted with
// shortest round-trippable formatting, so serialize -> parse -> serialize is
// byte-stable. This backs ExperimentSpec/Report serialization and
// BENCH_perf.json.
//
// Deliberately small: no comments, no trailing commas, UTF-8 passthrough
// with \uXXXX decoding. Parse errors throw std::runtime_error with a byte
// offset.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace netsmith::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue integer(long long i);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }

  // Typed accessors; throw std::runtime_error on type mismatch (kInt is
  // accepted by as_double, and a mathematically integral kDouble is not).
  // as_u64 bit-casts the int slot, so full-range 64-bit values round-trip
  // (above INT64_MAX they serialize as negative int tokens).
  bool as_bool() const;
  long long as_int() const;
  std::uint64_t as_u64() const;
  double as_double() const;
  const std::string& as_string() const;

  // Array access.
  const std::vector<JsonValue>& items() const;
  void push_back(JsonValue v);

  // Object access (insertion-ordered).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  // Null when the key is absent.
  const JsonValue* find(const std::string& key) const;
  // find() that throws with the key name when absent.
  const JsonValue& at(const std::string& key) const;
  void set(const std::string& key, JsonValue v);  // append or replace

  // Pretty-printed (2-space indent) serialization with trailing newline.
  std::string dump() const;

  // Single-line serialization (no whitespace, no trailing newline). Number
  // formatting matches dump(), so parse(dump_compact(v)) == v with the same
  // exactness guarantees. This backs the serve layer's newline-delimited
  // protocol, where every message must be one complete line.
  std::string dump_compact() const;

  // Strict parse of a complete document (throws std::runtime_error).
  static JsonValue parse(const std::string& text);

 private:
  void dump_to(std::string& out, int depth) const;
  void dump_compact_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  long long int_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Escapes and quotes `s` as a JSON string token.
std::string json_quote(const std::string& s);

}  // namespace netsmith::util
