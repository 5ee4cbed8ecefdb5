#pragma once
// RFC-4180 CSV reading and writing. Datasets (locations, cells, counties)
// persist as CSV so users can swap in real FCC Broadband Data Collection or
// Census extracts.

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace leodivide::io {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Parses a single CSV line (no embedded newlines) into `row`: its existing
/// strings are reused (no allocation once their capacity suffices) and it
/// is resized to the record's field count. Handles quoted fields with
/// doubled-quote escapes. Throws std::runtime_error on malformed quoting.
void parse_csv_line(std::string_view line, CsvRow& row);

/// One record's text as the record splitter found it: the bytes from its
/// first field to its terminator, a trailing CR stripped. `unterminated`
/// marks a quoted field still open at end of input; parse_csv_record
/// raises it, so a file's earlier records are all handed out first.
struct CsvRecord {
  std::string_view text;
  bool unterminated = false;
};

/// Parses one split record into `row` (as parse_csv_line, which may throw);
/// throws std::runtime_error "CSV: unterminated quoted record at EOF" for
/// an unterminated one.
void parse_csv_record(const CsvRecord& record, CsvRow& row);

/// Splits an istream into CSV records a block at a time. Each next_block
/// reads `block_bytes` more with one sized read (more when one record
/// outgrows a block) and hands back every record the buffer now holds in
/// full; a partial record at the end is carried into the next block.
/// Memory stays within a small multiple of one block plus the longest
/// record, whatever the stream's length.
///
/// The record boundary rule is RFC 4180's: a newline ends a record unless
/// a quoted field is open (the quote state is carried across the record's
/// physical lines, doubled quotes staying inside the field), so LF and CRLF
/// inside quoted fields are content and kept byte for byte. A CR before a
/// record's terminating LF is stripped, and lines that are empty after
/// that are skipped between records.
class CsvBlockReader {
 public:
  static constexpr std::size_t kDefaultBlockBytes = std::size_t{4} << 20;

  explicit CsvBlockReader(std::istream& in,
                          std::size_t block_bytes = kDefaultBlockBytes);

  /// Replaces `records` with the next block's complete records, in stream
  /// order; returns false, with `records` empty, once the input is
  /// exhausted. The views stay valid until the next call.
  bool next_block(std::vector<CsvRecord>& records);

 private:
  std::istream& in_;
  std::size_t block_bytes_;
  std::unique_ptr<char[]> buffer_;  // bytes read; [begin_, end_) unsplit
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

/// Streaming CSV reader over an istream, one record at a time: the
/// CsvBlockReader boundary rule (quoted fields may contain commas, escaped
/// quotes and embedded LF or CRLF; blank lines are skipped; CRLF record
/// terminators are normalised away) over small blocks.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in);

  /// Reads the next record into `row`; returns false at end of input.
  bool next(CsvRow& row);

  /// Number of records returned so far.
  [[nodiscard]] std::size_t records_read() const noexcept { return count_; }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;
  CsvBlockReader blocks_;
  std::vector<CsvRecord> records_;  // the current block's records
  std::size_t next_ = 0;            // the next one to return
  std::size_t count_ = 0;
};

/// Appends one record to `out`: the fields, each quoted per RFC 4180 only
/// when necessary (it contains a comma, quote, CR or LF), separated by
/// commas and ended by '\n'.
void append_csv_record(std::string& out,
                       std::initializer_list<std::string_view> fields);

/// CSV writer with minimal quoting (quotes only when necessary). A stream
/// that enters a failed state (disk full, closed pipe) raises
/// std::runtime_error from write_row rather than silently truncating the
/// output.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out);

  void write_row(std::initializer_list<std::string_view> fields);

  /// Writes `records` complete, already formatted records (as
  /// append_csv_record builds them) in one write.
  void write_records(std::string_view text, std::size_t records);

  [[nodiscard]] std::size_t records_written() const noexcept { return count_; }

 private:
  std::ostream& out_;
  // Each row is formatted into record_ and reaches the stream in one
  // write; record_ keeps its capacity, so steady-state rows allocate
  // nothing.
  std::string record_;
  std::size_t count_ = 0;
};

/// Stack storage for one number's CSV text. 320 bytes hold any double in
/// "%f" form (DBL_MAX has 309 integer digits) and any 64-bit integer.
using NumberBuffer = std::array<char, 320>;

/// Formats `v` into `buf` exactly as std::to_string(double) does ("%f":
/// fixed notation, six decimals) and returns the text.
[[nodiscard]] std::string_view fixed6_text(NumberBuffer& buf, double v);

/// Formats `v` into `buf` exactly as printf("%.12g") does in the C locale
/// (std::to_chars in general format at precision 12) and returns the text.
[[nodiscard]] std::string_view general12_text(NumberBuffer& buf, double v);

/// Parses a whole field as a double with std::stod's accepted set (leading
/// space, '+', hex floats, inf/nan); throws std::runtime_error
/// "CSV: bad double for <what>: '<field>'" otherwise, or when out of range.
[[nodiscard]] double field_to_double(std::string_view field, const char* what);

/// Parses a whole field as an unsigned integer in `base`; throws
/// std::runtime_error "CSV: bad integer for <what>: '<field>'" on any
/// other character, an empty field or overflow.
[[nodiscard]] std::uint64_t field_to_u64(std::string_view field,
                                         const char* what, int base = 10);

/// As field_to_u64 in base 10, with a value above UINT32_MAX an overflow
/// too.
[[nodiscard]] std::uint32_t field_to_u32(std::string_view field,
                                         const char* what);

/// Formats `v` into `buf` in `base` (lowercase digits, no prefix; base 16
/// matches hex::CellId::to_string) and returns the text.
[[nodiscard]] std::string_view integer_text(NumberBuffer& buf, std::uint64_t v,
                                            int base = 10);

}  // namespace leodivide::io
