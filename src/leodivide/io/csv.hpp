#pragma once
// RFC-4180 CSV reading and writing. Datasets (locations, cells, counties)
// persist as CSV so users can swap in real FCC Broadband Data Collection or
// Census extracts.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace leodivide::io {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Parses a single CSV line (no embedded newlines). Handles quoted fields
/// with doubled-quote escapes. Throws std::runtime_error on malformed
/// quoting.
[[nodiscard]] CsvRow parse_csv_line(std::string_view line);

/// As above, into `row`: its existing strings are reused (no allocation once
/// their capacity suffices) and it is resized to the record's field count.
void parse_csv_line(std::string_view line, CsvRow& row);

/// Streaming CSV reader over an istream. Supports quoted fields containing
/// commas, escaped quotes, and embedded newlines (LF and CRLF are both
/// preserved exactly inside quoted fields); skips blank lines. CRLF record
/// terminators are accepted and normalised away.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in);

  /// Reads the next record into `row`; returns false at end of input.
  bool next(CsvRow& row);

  /// Number of records returned so far.
  [[nodiscard]] std::size_t records_read() const noexcept { return count_; }

 private:
  std::istream& in_;
  std::string line_;  // the current record's text, reused across calls
  std::size_t count_ = 0;
};

/// CSV writer with minimal quoting (quotes only when necessary). A stream
/// that enters a failed state (disk full, closed pipe) raises
/// std::runtime_error from write_row rather than silently truncating the
/// output.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out);

  void write_row(const CsvRow& row);
  void write_row(std::initializer_list<std::string_view> fields);

  [[nodiscard]] std::size_t records_written() const noexcept { return count_; }

 private:
  // Fields are appended to record_ and each record reaches the stream in
  // one write; record_ keeps its capacity, so steady-state rows allocate
  // nothing.
  void write_field(std::string_view field, bool first);
  void end_record();
  std::ostream& out_;
  std::string record_;
  std::size_t count_ = 0;
};

/// Escapes one field per RFC 4180 (wraps in quotes iff it contains a comma,
/// quote, CR or LF).
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Stack storage for one number's CSV text. 320 bytes hold any double in
/// "%f" form (DBL_MAX has 309 integer digits) and any 64-bit integer.
using NumberBuffer = std::array<char, 320>;

/// Formats `v` into `buf` exactly as std::to_string(double) does ("%f":
/// fixed notation, six decimals) and returns the text.
[[nodiscard]] std::string_view fixed6_text(NumberBuffer& buf, double v);

/// Parses a whole field as a double with std::stod's accepted set (leading
/// space, '+', hex floats, inf/nan); throws std::runtime_error
/// "CSV: bad double for <what>: '<field>'" otherwise, or when out of range.
[[nodiscard]] double field_to_double(std::string_view field, const char* what);

/// Parses a whole field as an unsigned integer in `base`; throws
/// std::runtime_error "CSV: bad integer for <what>: '<field>'" on any
/// other character, an empty field or overflow.
[[nodiscard]] std::uint64_t field_to_u64(std::string_view field,
                                         const char* what, int base = 10);

/// Formats `v` into `buf` in `base` (lowercase digits, no prefix; base 16
/// matches hex::CellId::to_string) and returns the text.
[[nodiscard]] std::string_view integer_text(NumberBuffer& buf, std::uint64_t v,
                                            int base = 10);

}  // namespace leodivide::io
