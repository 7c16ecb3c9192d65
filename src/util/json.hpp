#pragma once
// Minimal JSON document model with a strict RFC-8259 parser and a writer.
//
// Used by the telemetry layer: the Perfetto/metrics exporters are validated
// by round-tripping their output through this parser, and tools/perf_check
// reads BENCH_*.json benchmark results and tolerance specs with it. The
// parser is strict — trailing garbage, trailing commas, unquoted keys,
// control characters in strings, and non-finite numbers are all rejected —
// so it doubles as a conformance check for everything we emit.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simas::json {

enum class Kind { Null, Bool, Number, String, Array, Object };

const char* kind_name(Kind k);

class Value {
 public:
  using Array = std::vector<Value>;
  /// Insertion-ordered object (order matters for golden comparisons).
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  Value(double d) : kind_(Kind::Number), num_(d) {}
  Value(int i) : kind_(Kind::Number), num_(i) {}
  Value(long i) : kind_(Kind::Number), num_(static_cast<double>(i)) {}
  Value(long long i) : kind_(Kind::Number), num_(static_cast<double>(i)) {}
  Value(unsigned long i) : kind_(Kind::Number), num_(static_cast<double>(i)) {}
  Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::String), str_(s) {}
  Value(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}
  Value(Object o) : kind_(Kind::Object), obj_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const { return arr_; }
  const Object& as_object() const { return obj_; }
  Array& as_array() { return arr_; }
  Object& as_object() { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Convenience: append a member to an object value.
  void set(std::string key, Value v) {
    kind_ = Kind::Object;
    obj_.emplace_back(std::move(key), std::move(v));
  }
  /// Convenience: append an element to an array value.
  void push_back(Value v) {
    kind_ = Kind::Array;
    arr_.push_back(std::move(v));
  }

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Strict parse of a complete JSON document. Returns false and fills `err`
/// (with a byte offset) on any deviation from RFC 8259.
bool parse(std::string_view text, Value* out, std::string* err);

/// Serialize. indent <= 0 writes compact single-line JSON; indent > 0
/// pretty-prints with that many spaces per level. Numbers are written with
/// up to 15 significant digits (shortest form via %.15g, integers without
/// a fractional part).
void write(std::ostream& os, const Value& v, int indent = 0);
std::string to_string(const Value& v, int indent = 0);

/// Escape a string for embedding in JSON output (no surrounding quotes).
std::string escape(std::string_view s);

/// Format one number exactly as write() writes it into `buf` (room for
/// kNumberChars) and return its length: for streaming writers that must
/// match a document's bytes.
inline constexpr std::size_t kNumberChars = 32;
std::size_t format_number(char* buf, double v);

}  // namespace simas::json
