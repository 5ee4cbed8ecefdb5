#pragma once
// Minimal streaming JSON writer (objects, arrays, numbers, strings). Bench
// binaries export machine-readable results next to their console tables so
// downstream plotting scripts can regenerate the paper's figures; the obs/
// trace and metrics files go through it too.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "leodivide/io/csv.hpp"

namespace leodivide::io {

/// Escapes a string for inclusion in JSON (quotes, backslashes, control
/// characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// A number's JSON text in `buf`: "%.12g" (general12_text), or null for
/// NaN and infinities.
[[nodiscard]] std::string_view json_number_text(NumberBuffer& buf, double v);

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
  /// json_number_text.
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

}  // namespace leodivide::io
