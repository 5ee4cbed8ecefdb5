#include "leodivide/io/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace leodivide::io {

CsvRow parse_csv_line(std::string_view line) {
  CsvRow row;
  parse_csv_line(line, row);
  return row;
}

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

CsvReader::CsvReader(std::istream& in) : in_(in) {}

namespace {

// Advances the RFC-4180 quote state across one physical-line chunk. A
// doubled quote inside a quoted field is an escape and leaves the state
// unchanged; any other quote toggles it. Escape pairs are adjacent bytes,
// so they can never straddle a chunk boundary (the boundary is a newline
// in the field's content) — scanning chunk-by-chunk with carried state is
// therefore exact, unlike total-quote-parity recounts, and costs O(chunk)
// per chunk instead of O(record) per re-join.
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

}  // namespace

bool CsvReader::next(CsvRow& row) {
  while (std::getline(in_, line_)) {
    // A trailing CR is the first half of a CRLF terminator. Strip it for
    // the record boundary, but remember it: if this newline turns out to be
    // *inside* a quoted field, the CRLF belongs to the field's content and
    // is restored verbatim on re-join.
    bool crlf = !line_.empty() && line_.back() == '\r';
    if (crlf) line_.pop_back();
    if (line_.empty()) continue;
    // Re-join physical lines while a quoted field spans the newline.
    bool in_quotes = scan_quote_state(line_, false);
    while (in_quotes) {
      std::string more;
      if (!std::getline(in_, more)) {
        throw std::runtime_error("CSV: unterminated quoted record at EOF");
      }
      const bool more_crlf = !more.empty() && more.back() == '\r';
      if (more_crlf) more.pop_back();
      line_.append(crlf ? "\r\n" : "\n");
      in_quotes = scan_quote_state(more, in_quotes);
      line_.append(more);
      crlf = more_crlf;
    }
    parse_csv_line(line_, row);
    ++count_;
    return true;
  }
  return false;
}

CsvWriter::CsvWriter(std::ostream& out) : out_(out) {}

std::string csv_escape(std::string_view field) {
  std::string out;
  append_field(out, field);
  return out;
}

void CsvWriter::write_field(std::string_view field, bool first) {
  if (!first) record_.push_back(',');
  append_field(record_, field);
}

void CsvWriter::end_record() {
  record_.push_back('\n');
  out_.write(record_.data(), static_cast<std::streamsize>(record_.size()));
  record_.clear();
  if (!out_) {
    throw std::runtime_error("CsvWriter: stream write failed after record " +
                             std::to_string(count_));
  }
  ++count_;
}

void CsvWriter::write_row(const CsvRow& row) {
  bool first = true;
  for (const auto& f : row) {
    write_field(f, first);
    first = false;
  }
  end_record();
}

void CsvWriter::write_row(std::initializer_list<std::string_view> fields) {
  bool first = true;
  for (const auto& f : fields) {
    write_field(f, first);
    first = false;
  }
  end_record();
}

std::string_view fixed6_text(NumberBuffer& buf, double v) {
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                       std::chars_format::fixed, 6);
  if (ec != std::errc{}) {
    throw std::logic_error("fixed6_text: buffer too small");
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
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error(std::string("CSV: bad integer for ") + what +
                             ": '" + std::string(field) + "'");
  }
  return v;
}

}  // namespace leodivide::io
