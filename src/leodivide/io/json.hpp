#pragma once
// Minimal JSON writer (objects, arrays, numbers, strings, bools) and a
// strict recursive-descent parser. Bench binaries export machine-readable
// results next to their console tables so downstream plotting scripts can
// regenerate the paper's figures; the parser lets tests and tools validate
// those lines and the obs/ trace files without external dependencies.

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leodivide::io {

/// Escapes a string for inclusion in JSON (quotes, backslashes, control
/// characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// A streaming JSON writer with explicit begin/end calls. The writer tracks
/// nesting and comma placement; misuse (ending a container that was never
/// begun) throws std::logic_error. Output is staged in the writer and
/// handed to the stream in large writes: whenever kFlushBytes are pending,
/// when the outermost container closes, and on destruction. A stream that
/// enters a failed state (disk full, closed pipe) raises std::runtime_error
/// from the write call that observed it rather than silently truncating
/// the document.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, bool pretty = true);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void begin_object(std::string_view key);
  void end_object();

  void begin_array();
  void begin_array(std::string_view key);
  void end_array();

  void value(std::string_view key, std::string_view v);
  void value(std::string_view key, double v);
  void value(std::string_view key, long long v);
  void value(std::string_view key, bool v);
  /// Disambiguation: a string literal must not decay to the bool overload.
  void value(std::string_view key, const char* v) {
    value(key, std::string_view(v));
  }

  /// Array element values.
  void element(std::string_view v);
  void element(double v);
  void element(long long v);
  void element(const char* v) { element(std::string_view(v)); }

 private:
  static constexpr std::size_t kFlushBytes = 64 * 1024;
  enum class Frame { kObject, kArray };
  void comma_and_indent();
  void newline_indent();
  void key_prefix(std::string_view key);
  void element_prefix();
  void open(Frame frame);
  void close(Frame frame);
  /// Only strings that need escaping go through json_escape.
  void write_string(std::string_view s);
  /// "%.12g" text (null for NaN and infinities), via std::to_chars.
  void write_number(double v);
  void write_number(long long v);
  void flush();
  /// Ends every public call: flushes when due, then reports a failed
  /// stream.
  void commit();
  std::ostream& out_;
  bool pretty_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  std::string pending_;
};

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

}  // namespace leodivide::io
