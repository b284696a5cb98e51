// Minimal JSON parser for configuration inputs (run, fleet, sweep specs,
// checkpoints). The repo deliberately has no third-party dependencies, so
// this implements just the JSON value model: objects, arrays, strings,
// numbers, bool, null. Strict where it matters for config files — trailing
// garbage, duplicate keys, malformed literals, numbers that overflow a
// double and runaway nesting are errors with position information — plus
// the strict field readers every spec parser shares.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace rupam {

class JsonValue;

/// Thrown on malformed input; `what()` carries a byte offset.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Ordered map keeps error messages and round-trips deterministic.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field lookup; returns nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse one JSON document; throws JsonParseError on malformed input
/// (including trailing non-whitespace, duplicate object keys, number
/// literals beyond double range and nesting deeper than a fixed limit).
JsonValue parse_json(const std::string& text);

/// Thrown by the require_* readers below. Spec parsers catch it and
/// rethrow with their own prefix ("run spec: ", "fleet spec: ", ...).
class JsonFieldError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Strict field readers: each checks the value's JSON type and throws
// JsonFieldError("<what> must be ...") on a mismatch.

/// A finite number.
double require_number(const JsonValue& v, const std::string& what);
const std::string& require_string(const JsonValue& v, const std::string& what);
bool require_bool(const JsonValue& v, const std::string& what);
const JsonValue::Array& require_array(const JsonValue& v, const std::string& what);

/// An integral number within T's range, checked before the cast.
/// Instantiated for int, std::int64_t and std::uint64_t.
template <class T>
T require_integer(const JsonValue& v, const std::string& what);

inline int require_int(const JsonValue& v, const std::string& what) {
  return require_integer<int>(v, what);
}

inline std::uint64_t require_u64(const JsonValue& v, const std::string& what) {
  return require_integer<std::uint64_t>(v, what);
}

}  // namespace rupam
