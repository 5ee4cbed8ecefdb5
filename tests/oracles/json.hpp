#pragma once
// The tests' JSON reader: a strict recursive-descent parser for the bench
// lines, CLI output, obs/ trace files and metrics the programs write with
// io::JsonWriter. Linked by the tests only, never by the shipped library.

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leodivide::oracle {

/// Thrown by json_parse on malformed input, with a byte offset in what().
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed JSON document node. Numbers are held as double (adequate for
/// every value the library emits); object member order is preserved.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> items;                            ///< arrays
  std::vector<std::pair<std::string, JsonValue>> members;  ///< objects

  [[nodiscard]] bool is_object() const noexcept {
    return type == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return type == Type::kString;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return type == Type::kNumber;
  }

  /// First member with `key`, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// find() that throws JsonParseError when the member is missing.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws JsonParseError on malformed input.
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace leodivide::oracle
