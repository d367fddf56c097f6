#pragma once
// Minimal JSON reader/writer for the control-plane serialization surface
// (MeasurementSnapshot and friends).
//
// Scope is deliberately small: one value type, a recursive-descent parser,
// and append-style writer helpers. Two properties matter here and are
// guaranteed:
//   * doubles round-trip exactly — the writer emits 17 significant digits
//     (std::to_chars, defined to match printf's "%.17g"), which IEEE-754
//     guarantees is enough for a correctly rounded parse (from_chars, as
//     strtod would) to reconstruct the identical bit pattern,
//   * object member order is preserved, so a serialize → parse →
//     serialize cycle is byte-stable (useful for golden fixtures).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace meshopt {

/// One parsed JSON value (null / bool / number / string / array / object).
///
/// Numbers are stored as double; integers are exact up to 2^53, far beyond
/// anything in the snapshot schema. A number token parses to the double
/// strtod would give in the C locale (std::from_chars, with strtod itself
/// for out-of-range tokens: 1e999 is inf, 1e-400 is 0). Accessors throw
/// std::invalid_argument on type mismatches so schema errors surface as
/// exceptions, not UB.
class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;

  /// Parse a complete JSON document (trailing garbage is an error).
  /// @throws std::invalid_argument on malformed input.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  /// @throws std::invalid_argument when the value is not a bool.
  [[nodiscard]] bool as_bool() const;
  /// @throws std::invalid_argument when the value is not a number.
  [[nodiscard]] double as_number() const;
  /// as_number() narrowed to int (truncating).
  /// @throws std::invalid_argument when the value does not fit an int.
  [[nodiscard]] int as_int() const;
  /// @throws std::invalid_argument when the value is not a string.
  [[nodiscard]] const std::string& as_string() const;

  /// Array elements. @throws std::invalid_argument when not an array.
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  /// Object members in document order.
  /// @throws std::invalid_argument when not an object.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object member lookup. @throws std::invalid_argument when missing.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// Append-style writer helpers. Callers assemble documents with ordinary
// string concatenation plus these for the non-trivial token kinds. None
// of them goes through printf or the C locale.

/// Append `v` formatted with enough digits (std::to_chars with 17
/// significant digits, byte-equal to printf's "%.17g") that parsing
/// returns the bit-identical double. Non-finite values are emitted as
/// null (JSON has no inf/nan); the snapshot schema never produces them.
void json_append_double(std::string& out, double v);

/// Append `v` as a decimal integer literal.
void json_append_int(std::string& out, long long v);

/// Append `v` as a quoted string of "0x" and 16 lowercase hex digits.
void json_append_hex(std::string& out, std::uint64_t v);

/// Append `s` as a quoted, escaped JSON string.
void json_append_string(std::string& out, std::string_view s);

}  // namespace meshopt
