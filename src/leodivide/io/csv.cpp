#include "leodivide/io/csv.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>

namespace leodivide::io {

void parse_csv_line(std::string_view line, CsvRow& row) {
  std::size_t fields = 0;
  // Starts the next field in the reused row: an existing string is cleared
  // (keeping its capacity), a new one appended only past the old width.
  const auto next_field = [&row, &fields]() -> std::string& {
    if (fields == row.size()) row.emplace_back();
    std::string& field = row[fields++];
    field.clear();
    return field;
  };
  std::string* field = &next_field();
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    if (in_quotes) {
      const std::size_t quote = line.find('"', i);
      if (quote == std::string_view::npos) {
        field->append(line.substr(i));
        break;
      }
      field->append(line.substr(i, quote - i));
      if (quote + 1 < line.size() && line[quote + 1] == '"') {
        field->push_back('"');
        i = quote + 2;
      } else {
        in_quotes = false;
        i = quote + 1;
      }
      continue;
    }
    // Plain scans, here and in append_field: string_view::find_first_of
    // searches the whole set once per character, several times slower on
    // short fields.
    std::size_t stop = i;
    while (stop < line.size() && line[stop] != ',' && line[stop] != '"') {
      ++stop;
    }
    if (stop == line.size()) {
      field->append(line.substr(i));
      break;
    }
    field->append(line.substr(i, stop - i));
    if (line[stop] == '"') {
      if (!field->empty()) {
        throw std::runtime_error("CSV: quote inside unquoted field");
      }
      in_quotes = true;
    } else {
      field = &next_field();
    }
    i = stop + 1;
  }
  if (in_quotes) throw std::runtime_error("CSV: unterminated quoted field");
  row.resize(fields);
}

namespace {

// Advances the RFC-4180 quote state across one physical-line chunk. A
// doubled quote inside a quoted field is an escape and leaves the state
// unchanged; any other quote toggles it. Escape pairs are adjacent bytes,
// so they can never straddle a chunk boundary (the boundary is a newline
// in the field's content) — scanning chunk-by-chunk with carried state is
// therefore exact, unlike total-quote-parity recounts, and costs O(chunk)
// per chunk instead of O(record) per line.
bool scan_quote_state(std::string_view chunk, bool in_quotes) {
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (chunk[i] != '"') continue;
    if (in_quotes && i + 1 < chunk.size() && chunk[i + 1] == '"') {
      ++i;  // escaped "" pair: stay inside the quoted field
    } else {
      in_quotes = !in_quotes;
    }
  }
  return in_quotes;
}

// Appends `field` to `out`, wrapped in quotes with doubled inner quotes
// iff it contains a comma, quote, CR or LF.
void append_field(std::string& out, std::string_view field) {
  const bool plain = std::none_of(field.begin(), field.end(), [](char c) {
    return c == ',' || c == '"' || c == '\r' || c == '\n';
  });
  if (plain) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

[[noreturn]] void throw_bad_integer(std::string_view field, const char* what) {
  throw std::runtime_error(std::string("CSV: bad integer for ") + what +
                           ": '" + std::string(field) + "'");
}

enum class Split { kRecord, kUnterminated, kNeedMore, kEnd };

// The record boundary rule, the one CsvBlockReader documents. From `pos`,
// a record boundary in `text`, skips blank lines and finds the next record:
//  * kRecord: `record` is set and `pos` moves past its terminator;
//  * kUnterminated (only at `eof`): a quoted field is still open at the end
//    of `text`, `record` is marked so and `pos` moves to the end;
//  * kNeedMore: the record's terminator is not in `text` yet; `pos` stays
//    at its first byte, so the next block rescans it whole;
//  * kEnd (only at `eof`): nothing but blank lines remained.
// Without `eof`, text past the last newline may be cut mid-line. A line
// without a quote keeps the quote state, so only lines holding one, or
// inside an open quoted field, go through scan_quote_state.
Split split_record(std::string_view text, std::size_t& pos, bool eof,
                   CsvRecord& record) {
  const auto blank = [&text](std::size_t from, std::size_t to) {
    return to == from || (to == from + 1 && text[from] == '\r');
  };
  std::size_t newline = text.find('\n', pos);
  for (; newline != std::string_view::npos && blank(pos, newline);
       newline = text.find('\n', pos)) {
    pos = newline + 1;
  }
  if (newline == std::string_view::npos) {
    if (!eof) return Split::kNeedMore;
    if (blank(pos, text.size())) {
      pos = text.size();
      return Split::kEnd;
    }
  }
  const std::size_t start = pos;
  bool in_quotes = false;
  for (std::size_t line = start;; line = newline + 1,
                   newline = text.find('\n', line)) {
    if (newline == std::string_view::npos && !eof) return Split::kNeedMore;
    const std::size_t line_end =
        newline == std::string_view::npos ? text.size() : newline;
    const std::string_view chunk = text.substr(line, line_end - line);
    if (in_quotes || chunk.find('"') != std::string_view::npos) {
      in_quotes = scan_quote_state(chunk, in_quotes);
    }
    if (in_quotes && newline != std::string_view::npos) continue;
    const std::size_t end =
        line_end > start && text[line_end - 1] == '\r' ? line_end - 1
                                                        : line_end;
    record = {text.substr(start, end - start), in_quotes};
    pos = newline == std::string_view::npos ? text.size() : newline + 1;
    return in_quotes ? Split::kUnterminated : Split::kRecord;
  }
}

}  // namespace

void parse_csv_record(const CsvRecord& record, CsvRow& row) {
  if (record.unterminated) {
    throw std::runtime_error("CSV: unterminated quoted record at EOF");
  }
  parse_csv_line(record.text, row);
}

CsvBlockReader::CsvBlockReader(std::istream& in, std::size_t block_bytes)
    : in_(in), block_bytes_(std::max<std::size_t>(block_bytes, 1)) {}

bool CsvBlockReader::next_block(std::vector<CsvRecord>& records) {
  records.clear();
  for (;;) {
    if (!eof_) {
      // Carry the partial record to the front, then read one block more —
      // or as much again as that record when it alone outgrows a block, so
      // a huge record is rescanned a logarithmic number of times.
      const std::size_t carried = end_ - begin_;
      const std::size_t want = std::max(block_bytes_, carried);
      if (capacity_ < carried + want) {
        // Doubling, so a stream of ordinary records settles on one buffer;
        // uninitialised, since the read fills what is used.
        const std::size_t grown_size = std::max(carried + want, 2 * capacity_);
        auto grown = std::make_unique_for_overwrite<char[]>(grown_size);
        if (carried > 0) {
          std::memcpy(grown.get(), buffer_.get() + begin_, carried);
        }
        buffer_ = std::move(grown);
        capacity_ = grown_size;
      } else if (carried > 0) {
        std::memmove(buffer_.get(), buffer_.get() + begin_, carried);
      }
      in_.read(buffer_.get() + carried, static_cast<std::streamsize>(want));
      const auto got = static_cast<std::size_t>(in_.gcount());
      begin_ = 0;
      end_ = carried + got;
      eof_ = got < want;
    }
    const std::string_view text(buffer_.get(), end_);
    std::size_t pos = begin_;
    CsvRecord record;
    for (Split split = Split::kRecord; split == Split::kRecord;) {
      split = split_record(text, pos, eof_, record);
      if (split == Split::kRecord || split == Split::kUnterminated) {
        records.push_back(record);
      }
    }
    begin_ = pos;
    if (!records.empty() || eof_) return !records.empty();
  }
}

CsvReader::CsvReader(std::istream& in) : blocks_(in, kBlockBytes) {}

bool CsvReader::next(CsvRow& row) {
  while (next_ == records_.size()) {
    if (!blocks_.next_block(records_)) return false;
    next_ = 0;
  }
  parse_csv_record(records_[next_++], row);
  ++count_;
  return true;
}

void append_csv_record(std::string& out,
                       std::initializer_list<std::string_view> fields) {
  bool first = true;
  for (const auto& field : fields) {
    if (!first) out.push_back(',');
    append_field(out, field);
    first = false;
  }
  out.push_back('\n');
}

CsvWriter::CsvWriter(std::ostream& out) : out_(out) {}

void CsvWriter::write_records(std::string_view text, std::size_t records) {
  out_.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out_) {
    throw std::runtime_error("CsvWriter: stream write failed after record " +
                             std::to_string(count_));
  }
  count_ += records;
}

void CsvWriter::write_row(std::initializer_list<std::string_view> fields) {
  record_.clear();
  append_csv_record(record_, fields);
  write_records(record_, 1);
}

namespace {

__extension__ typedef unsigned __int128 u128;  // GCC/Clang; -Wpedantic-clean

// v rounded to a multiple of 1e-6, as an integer count of millionths, when
// that count fits 64 bits. v = m * 2^e exactly, so m * 10^6 (below 2^73)
// shifted right by -e with round-half-even is the correctly rounded count
// that "%f" prints; a larger v keeps std::to_chars.
std::optional<std::uint64_t> millionths(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
  if (biased == 0x7ff) return std::nullopt;  // inf, NaN
  if (biased != 0) m |= std::uint64_t{1} << 52;
  const int shift = 1075 - std::max(biased, 1);  // v = m * 2^-shift
  if (shift <= 0) return std::nullopt;          // |v| >= 2^52
  if (shift >= 128) return 0;  // m * 10^6 < 2^73 <= 2^(shift - 1)
  const u128 scaled = static_cast<u128>(m) * 1'000'000U;
  u128 count = scaled >> shift;
  const u128 rest = scaled - (count << shift);
  const u128 half = static_cast<u128>(1) << (shift - 1);
  if (rest > half || (rest == half && (count & 1U) != 0)) ++count;
  if (count > std::numeric_limits<std::uint64_t>::max()) return std::nullopt;
  return static_cast<std::uint64_t>(count);
}

constexpr std::array<std::uint64_t, 18> kPow10 = [] {
  std::array<std::uint64_t, 18> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * 10U;
  return p;
}();

// |v| rounded to 12 significant digits, as digits * 10^(exponent - 11)
// with digits in [10^11, 10^12), when "%.12g" prints that in fixed
// notation: exponent in [-4, 11]. v = m * 2^-shift exactly, so
// m * 10^(11 - x) (below 2^110) shifted right by `shift` with
// round-half-even is the correctly rounded digit count; a carry to 10^12
// moves the exponent up one. Zero, subnormals and every magnitude that
// prints in exponent form keep std::to_chars.
struct Digits12 {
  std::uint64_t digits;
  int exponent;
};
std::optional<Digits12> digits12(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int e2 = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  if (e2 < -19 || e2 > 39) return std::nullopt;  // |v| < 2^-19 or >= 2^40
  const std::uint64_t m =
      (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
  const int shift = 52 - e2;  // in [13, 71]
  // floor(log10 |v|) is x or x + 1: |v| lies in [2^e2, 2^(e2 + 1)).
  int x = (e2 * 78913) >> 18;  // floor(e2 * log10(2)), in [-6, 11]
  u128 scaled = static_cast<u128>(m) * kPow10[static_cast<std::size_t>(11 - x)];
  u128 count = scaled >> shift;
  if (count >= kPow10[12]) {  // |v| >= 10^(x + 1)
    if (++x > 11) return std::nullopt;
    scaled = static_cast<u128>(m) * kPow10[static_cast<std::size_t>(11 - x)];
    count = scaled >> shift;
  }
  const u128 rest = scaled - (count << shift);
  const u128 half = static_cast<u128>(1) << (shift - 1);
  if (rest > half || (rest == half && (count & 1U) != 0)) ++count;
  if (count == kPow10[12]) {
    count = kPow10[11];
    ++x;
  }
  if (x < -4 || x > 11) return std::nullopt;
  return Digits12{static_cast<std::uint64_t>(count), x};
}

}  // namespace

std::string_view fixed6_text(NumberBuffer& buf, double v) {
  if (const std::optional<std::uint64_t> count = millionths(v)) {
    char* out = buf.data();
    if (std::signbit(v)) *out++ = '-';
    out = std::to_chars(out, buf.data() + buf.size(), *count / 1'000'000U).ptr;
    *out++ = '.';
    std::uint64_t frac = *count % 1'000'000U;
    for (int d = 5; d >= 0; --d) {
      out[d] = static_cast<char>('0' + frac % 10U);
      frac /= 10U;
    }
    return {buf.data(), static_cast<std::size_t>(out + 6 - buf.data())};
  }
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                       std::chars_format::fixed, 6);
  if (ec != std::errc{}) {
    throw std::logic_error("fixed6_text: buffer too small");
  }
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

std::string_view general12_text(NumberBuffer& buf, double v) {
  if (const std::optional<Digits12> d = digits12(v)) {
    char digits[12];
    std::uint64_t rest = d->digits;
    for (int i = 11; i >= 0; --i) {
      digits[i] = static_cast<char>('0' + rest % 10U);
      rest /= 10U;
    }
    // Digits after index `exponent` are the fraction; "%g" drops its
    // trailing zeros, and the point with them when none is left.
    int last = 11;
    while (last > d->exponent && digits[last] == '0') --last;
    char* out = buf.data();
    if (std::signbit(v)) *out++ = '-';
    if (d->exponent >= 0) {
      out = std::copy(digits, digits + d->exponent + 1, out);
      if (last > d->exponent) {
        *out++ = '.';
        out = std::copy(digits + d->exponent + 1, digits + last + 1, out);
      }
    } else {
      *out++ = '0';
      *out++ = '.';
      out = std::fill_n(out, -d->exponent - 1, '0');
      out = std::copy(digits, digits + last + 1, out);
    }
    return {buf.data(), static_cast<std::size_t>(out - buf.data())};
  }
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                       std::chars_format::general, 12);
  if (ec != std::errc{}) {
    throw std::logic_error("general12_text: buffer too small");
  }
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

std::string_view integer_text(NumberBuffer& buf, std::uint64_t v, int base) {
  const auto [end, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), v, base);
  if (ec != std::errc{}) {
    throw std::logic_error("integer_text: buffer too small");
  }
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

double field_to_double(std::string_view field, const char* what) {
  // from_chars is exact and allocation-free but stricter than strtod (no
  // leading space, '+' or hex floats), and it takes subnormals and NaN
  // payloads that std::stod rejects or reads differently. Its result stands
  // only for a whole-field zero or a finite value above the normal minimum;
  // every other field goes to std::stod, so the accepted set and every
  // value stay std::stod's.
  double v = 0.0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  const int kind = std::fpclassify(v);
  if (ec == std::errc{} && ptr == end &&
      (kind == FP_ZERO ||
       (kind == FP_NORMAL &&
        std::abs(v) > std::numeric_limits<double>::min()))) {
    return v;
  }
  const std::string text(field);
  try {
    std::size_t pos = 0;
    v = std::stod(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::runtime_error(std::string("CSV: bad double for ") + what +
                           ": '" + text + "'");
}

std::uint64_t field_to_u64(std::string_view field, const char* what,
                           int base) {
  std::uint64_t v = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v, base);
  if (ec != std::errc{} || ptr != end) throw_bad_integer(field, what);
  return v;
}

std::uint32_t field_to_u32(std::string_view field, const char* what) {
  const std::uint64_t v = field_to_u64(field, what);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw_bad_integer(field, what);
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace leodivide::io
