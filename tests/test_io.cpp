// Unit tests for leodivide::io — CSV, tables, JSON.

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "leodivide/io/cli.hpp"
#include "leodivide/io/csv.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/io/table.hpp"
#include "oracles/json.hpp"

namespace leodivide::io {
namespace {

using oracle::json_parse;
using oracle::JsonParseError;
using oracle::JsonValue;

// Parses one CSV line into a fresh row.
CsvRow parse_line(std::string_view line) {
  CsvRow row;
  parse_csv_line(line, row);
  return row;
}

// One CSV record of `row`'s fields, each quoted as append_csv_record
// quotes it.
std::string csv_record(const CsvRow& row) {
  std::string record;
  for (std::size_t c = 0; c < row.size(); ++c) {
    std::string quoted;
    append_csv_record(quoted, {row[c]});
    quoted.pop_back();  // the single-field record's '\n'
    if (c > 0) record.push_back(',');
    record += quoted;
  }
  record.push_back('\n');
  return record;
}

// -------------------------------------------------------------------- csv ----

TEST(CliFlags, ValueMatchesBothSpellingsOnly) {
  char a0[] = "prog", a1[] = "--port", a2[] = "80", a3[] = "--port=81",
       a4[] = "--port-file", a5[] = "--port";
  char* argv[] = {a0, a1, a2, a3, a4, a5};
  int i = 1;
  EXPECT_EQ(flag_value(6, argv, i, "--port"), "80");
  EXPECT_EQ(i, 2);
  i = 3;
  EXPECT_EQ(flag_value(6, argv, i, "--port"), "81");
  i = 4;
  EXPECT_EQ(flag_value(6, argv, i, "--port"), std::nullopt);
  i = 5;
  EXPECT_THROW((void)flag_value(6, argv, i, "--port"), std::runtime_error);
}

TEST(CliFlags, ParseFlagTakesWholeFieldsInRange) {
  EXPECT_EQ(parse_flag<std::uint16_t>("--port", "65535"), 65535);
  EXPECT_EQ(parse_flag<std::uint64_t>("--seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(std::isnan(parse_flag<double>("--scale", "nan")));
  for (const char* bad : {"70000", "-1", "", "8x", " 8"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_flag<std::uint16_t>("--port", bad),
                 std::runtime_error);
  }
  EXPECT_THROW((void)parse_flag<double>("--scale", "0.01x"),
               std::runtime_error);
  try {
    (void)parse_flag<std::uint64_t>("--seed", "-1");
    FAIL() << "negative seed accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "invalid --seed value '-1'");
  }
}

TEST(CliFlags, ParsePositiveRejectsZeroAndNonFinite) {
  EXPECT_EQ(parse_positive<std::uint32_t>("planes", "72"), 72U);
  EXPECT_EQ(parse_positive<double>("minutes", "0.5"), 0.5);
  for (const char* bad : {"0", "-0.5", "nan", "inf", "-inf", "1x"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_positive<double>("minutes", bad),
                 std::runtime_error);
  }
  for (const char* bad : {"0", "-3", "4294967296"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_positive<std::uint32_t>("planes", bad),
                 std::runtime_error);
  }
}

TEST(CsvParse, SimpleFields) {
  const CsvRow row = parse_line("a,b,c");
  ASSERT_EQ(row.size(), 3U);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[2], "c");
}

TEST(CsvParse, EmptyFields) {
  const CsvRow row = parse_line("a,,c,");
  ASSERT_EQ(row.size(), 4U);
  EXPECT_EQ(row[1], "");
  EXPECT_EQ(row[3], "");
}

TEST(CsvParse, QuotedFieldWithComma) {
  const CsvRow row = parse_line(R"(x,"a,b",y)");
  ASSERT_EQ(row.size(), 3U);
  EXPECT_EQ(row[1], "a,b");
}

TEST(CsvParse, EscapedQuotes) {
  const CsvRow row = parse_line(R"("say ""hi""",2)");
  ASSERT_EQ(row.size(), 2U);
  EXPECT_EQ(row[0], "say \"hi\"");
}

TEST(CsvParse, RejectsMalformedQuoting) {
  EXPECT_THROW(parse_line(R"(a,"unterminated)"), std::runtime_error);
  EXPECT_THROW(parse_line(R"(ab"cd)"), std::runtime_error);
}

// Every record of `text` through a CsvBlockReader of `block_bytes` blocks.
std::vector<CsvRow> read_blocks(const std::string& text,
                                std::size_t block_bytes) {
  std::istringstream in(text);
  CsvBlockReader reader(in, block_bytes);
  std::vector<CsvRecord> records;
  std::vector<CsvRow> rows;
  while (reader.next_block(records)) {
    for (const CsvRecord& record : records) {
      parse_csv_record(record, rows.emplace_back());
    }
  }
  return rows;
}

// Every record of `text` through CsvReader, after checking that block
// readers with blocks small enough for records to straddle them agree.
std::vector<CsvRow> read_all(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(in);
  std::vector<CsvRow> rows;
  for (CsvRow row; reader.next(row);) rows.push_back(row);
  EXPECT_EQ(reader.records_read(), rows.size());
  for (const std::size_t block : {1, 2, 3, 5, 8, 64}) {
    EXPECT_EQ(read_blocks(text, block), rows) << "block bytes " << block;
  }
  return rows;
}

TEST(CsvReader, ReadsMultipleRecordsSkippingBlanks) {
  const auto rows = read_all("a,b\n\n1,2\r\n3,4\n");
  ASSERT_EQ(rows.size(), 3U);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[1][1], "2");
  EXPECT_EQ(rows[2][0], "3");
}

TEST(CsvReader, QuotedFieldSpanningNewline) {
  const auto rows = read_all("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0][0], "line1\nline2");
  EXPECT_EQ(rows[0][1], "x");
}

TEST(CsvReader, EscapedQuotePairAtRejoinBoundary) {
  // The field content is  a"  then a newline then  b : the escaped "" pair
  // sits at the very end of the first physical line, immediately before the
  // re-join boundary.
  const auto rows = read_all("\"a\"\"\nb\",x\n");
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0], (CsvRow{"a\"\nb", "x"}));
}

TEST(CsvReader, EscapedQuotePairStartsContinuationLine) {
  // Content  a  newline  "b : the continuation line *begins* with an
  // escaped "" pair while the quote state is still open.
  const auto rows = read_all("\"a\n\"\"b\",x\n");
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0], (CsvRow{"a\n\"b", "x"}));
}

TEST(CsvReader, QuotedCommasAcrossRejoinedLines) {
  const auto rows = read_all("\"x,y\nz,w\",\"p,q\"\n");
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0], (CsvRow{"x,y\nz,w", "p,q"}));
}

TEST(CsvReader, EmbeddedCrlfInsideQuotedFieldIsPreserved) {
  // CRLF inside a quoted field is field content (RFC 4180) and must survive
  // the re-join byte-for-byte; CRLF *record terminators* are normalised.
  const auto rows = read_all("\"a\r\nb\",x\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0], (CsvRow{"a\r\nb", "x"}));
  EXPECT_EQ(rows[1][0], "1");
}

TEST(CsvReader, ConsecutiveEmbeddedNewlines) {
  const auto rows = read_all("\"a\n\nb\",x\n");
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0][0], "a\n\nb");
  const auto crlf_rows = read_all("\"a\r\n\r\nb\",x\n");
  ASSERT_EQ(crlf_rows.size(), 1U);
  EXPECT_EQ(crlf_rows[0][0], "a\r\n\r\nb");
}

TEST(CsvReader, BareCarriageReturnInsideQuotedField) {
  // A CR that is not part of a CRLF sequence is plain field content.
  const auto rows = read_all("\"a\rb\",\"c\r\"\n");
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0], (CsvRow{"a\rb", "c\r"}));
}

TEST(CsvReader, LastRecordWithoutTerminatorAndTrailingBlanks) {
  EXPECT_EQ(read_all("a,b\r\n1,2"),
            (std::vector<CsvRow>{{"a", "b"}, {"1", "2"}}));
  EXPECT_EQ(read_all("a\r"), (std::vector<CsvRow>{{"a"}}));
  EXPECT_EQ(read_all("a\n\r\n\n\r"), (std::vector<CsvRow>{{"a"}}));
  EXPECT_TRUE(read_all("").empty());
  EXPECT_TRUE(read_all("\n\r\n\r").empty());
}

TEST(CsvBlockReader, UnterminatedQuoteIsTheLastRecordNotAnEarlyThrow) {
  const std::string text = "h1,h2\n1,2\n\"spans\nlines,but never closes\n";
  for (const std::size_t block : {1, 4, 1 << 20}) {
    SCOPED_TRACE(block);
    std::istringstream in(text);
    CsvBlockReader reader(in, block);
    std::vector<CsvRecord> records;
    std::vector<CsvRecord> all;
    std::vector<std::string> texts;
    while (reader.next_block(records)) {
      for (const CsvRecord& r : records) {
        all.push_back(r);
        texts.emplace_back(r.text);
      }
    }
    ASSERT_EQ(all.size(), 3U);
    EXPECT_EQ(texts[0], "h1,h2");
    EXPECT_EQ(texts[1], "1,2");
    EXPECT_FALSE(all[0].unterminated || all[1].unterminated);
    EXPECT_TRUE(all[2].unterminated);
    CsvRow row;
    try {
      parse_csv_record(all[2], row);
      ADD_FAILURE() << "unterminated record parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "CSV: unterminated quoted record at EOF");
    }
  }
}

TEST(CsvBlockReader, RecordLongerThanManyBlocks) {
  const std::string field(100000, 'x');
  const std::string quoted = "\"" + field + "\n" + field + "\"";
  const auto rows = read_all("a," + quoted + ",b\r\nc\n");
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0], (CsvRow{"a", field + "\n" + field, "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"c"}));
}

TEST(CsvRoundTrip, CrlfAndQuoteHeavyContentSurvives) {
  const CsvRow original{"a\r\nb", "say \"\"hi\"\"", "tail\"", "\r", ",\n,"};
  std::ostringstream out;
  {
    CsvWriter writer(out);
    writer.write_row(
        {original[0], original[1], original[2], original[3], original[4]});
  }
  EXPECT_EQ(read_all(out.str()), (std::vector<CsvRow>{original}));
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_record({"plain"}), "plain\n");
  EXPECT_EQ(csv_record({"a,b"}), "\"a,b\"\n");
  EXPECT_EQ(csv_record({"has\"quote"}), "\"has\"\"quote\"\n");
  EXPECT_EQ(csv_record({"line\nbreak"}), "\"line\nbreak\"\n");
}

TEST(CsvRoundTrip, WriterThenReaderPreservesData) {
  std::ostringstream out;
  {
    CsvWriter writer(out);
    writer.write_row({"id", "name", "notes"});
    writer.write_row({"1", "with,comma", "say \"hi\""});
    writer.write_row({"2", "", "multi\nline"});
    EXPECT_EQ(writer.records_written(), 3U);
  }
  std::istringstream in(out.str());
  CsvReader reader(in);
  CsvRow row;
  ASSERT_TRUE(reader.next(row));
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[1], "with,comma");
  EXPECT_EQ(row[2], "say \"hi\"");
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[1], "");
  EXPECT_EQ(row[2], "multi\nline");
}

TEST(CsvWriter, DirectWriteStillQuotesSpecialFields) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"plain", "a,b", "say \"hi\"", "cr\rx", "lf\nx", ""});
  EXPECT_EQ(out.str(),
            "plain,\"a,b\",\"say \"\"hi\"\"\",\"cr\rx\",\"lf\nx\",\n");
}

TEST(CsvWriter, WrittenRecordsMatchWriteRowBytes) {
  std::ostringstream rows_out;
  CsvWriter rows(rows_out);
  rows.write_row({"1", "a,b"});
  rows.write_row({"2", "say \"hi\""});
  std::string text;
  append_csv_record(text, {"1", "a,b"});
  append_csv_record(text, {"2", "say \"hi\""});
  std::ostringstream block_out;
  CsvWriter block(block_out);
  block.write_records(text, 2);
  EXPECT_EQ(block_out.str(), rows_out.str());
  EXPECT_EQ(block.records_written(), 2U);
  std::ostringstream failed;
  failed.setstate(std::ios::badbit);
  CsvWriter failing(failed);
  EXPECT_THROW(failing.write_records(text, 2), std::runtime_error);
}

TEST(CsvReader, ReusedRowShrinksToShorterRecord) {
  std::istringstream in("1,2,3,4,5\na,\"b,c\",d\n");
  CsvReader reader(in);
  CsvRow row;
  ASSERT_TRUE(reader.next(row));
  ASSERT_EQ(row.size(), 5U);
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row, (CsvRow{"a", "b,c", "d"}));
  parse_csv_line("x,y,z,w", row);
  parse_csv_line(",", row);
  EXPECT_EQ(row, (CsvRow{"", ""}));
}

TEST(CsvNumbers, FixedSixMatchesToString) {
  const double adversarial[] = {
      0.0,
      -0.0,
      0.0000005,  // rounds at the sixth decimal
      0.0000015,
      -0.0000005,
      0.0078125,  // exact binary tie at the seventh decimal
      2.5,
      -92.3,
      36.123456789,
      123456789.0000005,
      1e22,
      1e300,
      -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  NumberBuffer buf;
  for (const double v : adversarial) {
    EXPECT_EQ(fixed6_text(buf, v), std::to_string(v));
  }
}

// fixed6_text rounds m * 10^6 exactly in integers whenever the count of
// millionths fits 64 bits; its bytes must equal std::to_chars(fixed, 6) on
// coordinates, wide exponents, raw bit patterns (subnormals, +-0, +-inf,
// NaN payloads) and exact decimal ties j * 2^-k.
TEST(CsvNumbers, Fixed6MatchesToChars) {
  NumberBuffer got;
  NumberBuffer want;
  std::size_t checked = 0;
  const auto expect_same = [&](double v) {
    const auto [end, ec] = std::to_chars(want.data(), want.data() + want.size(),
                                         v, std::chars_format::fixed, 6);
    ASSERT_EQ(ec, std::errc{});
    ASSERT_EQ(fixed6_text(got, v),
              std::string_view(want.data(),
                               static_cast<std::size_t>(end - want.data())))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    ++checked;
  };
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  for (int i = 0; i < 100'000; ++i) {
    expect_same(lat(rng));
    expect_same(lon(rng));
  }
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  for (int e = -1074; e <= 1023; ++e) {
    for (int i = 0; i < 20; ++i) {
      const double v = std::ldexp(mantissa(rng), e);
      expect_same(v);
      expect_same(-v);
    }
  }
  for (int i = 0; i < 200'000; ++i) expect_same(std::bit_cast<double>(rng()));
  for (const std::uint64_t bits :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x000fffffffffffff},
        std::uint64_t{0x0010000000000000}, std::uint64_t{0x8000000000000000},
        std::uint64_t{0x8000000000000001}, std::uint64_t{0x7ff0000000000000},
        std::uint64_t{0xfff0000000000000}, std::uint64_t{0x7ff8000000000000},
        std::uint64_t{0xfff8000000000001}, std::uint64_t{0x7ff0000000000001}}) {
    expect_same(std::bit_cast<double>(bits));
  }
  // Ties: j * 2^-k with v * 10^6 exactly halfway between two integers, from
  // 0.0078125 = 2^-7 up to counts near 2^64, and the 64-bit edge itself.
  for (int k = 7; k <= 40; ++k) {
    for (std::uint64_t j = 1; j < 4000; ++j) {
      expect_same(std::ldexp(static_cast<double>(j), -k));
      expect_same(-std::ldexp(static_cast<double>(j), -k));
      expect_same(std::ldexp(static_cast<double>((std::uint64_t{1} << 40) + j), -k));
    }
  }
  for (const double edge : {18446744073709.551615, 18446744073709.5517,
                            18446744073709.55, 18446744073709.552,
                            9007199254740991.0, 4503599627370495.5}) {
    expect_same(edge);
    expect_same(std::nextafter(edge, 0.0));
    expect_same(std::nextafter(edge, 1e300));
  }
  EXPECT_GT(checked, 800'000U);
}

TEST(CsvNumbers, General12MatchesToChars) {
  NumberBuffer got;
  NumberBuffer want;
  std::size_t checked = 0;
  const auto expect_same = [&](double v) {
    const auto [end, ec] = std::to_chars(want.data(), want.data() + want.size(),
                                         v, std::chars_format::general, 12);
    ASSERT_EQ(ec, std::errc{});
    ASSERT_EQ(general12_text(got, v),
              std::string_view(want.data(),
                               static_cast<std::size_t>(end - want.data())))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    ++checked;
  };
  const auto with_neighbours = [&](double v) {
    expect_same(v);
    expect_same(std::nextafter(v, 0.0));
    expect_same(std::nextafter(v, 1e300));
    expect_same(-v);
  };
  std::mt19937_64 rng(20261020);
  // The magnitudes the exports write: coordinates, incomes, demand (0.1
  // Gbps per location), fractions and integer counts up to 2^40.
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> income(15'000.0, 250'000.0);
  std::uniform_real_distribution<double> fraction(0.0, 1.0);
  std::uniform_int_distribution<std::uint64_t> count(0, 200'000);
  std::uniform_int_distribution<std::uint64_t> integer(
      0, std::uint64_t{1} << 40);
  for (int i = 0; i < 150'000; ++i) {
    expect_same(lat(rng));
    expect_same(lon(rng));
    expect_same(income(rng));
    expect_same(std::round(income(rng)));
    expect_same(static_cast<double>(count(rng)) * (100.0 / 1000.0));
    expect_same(fraction(rng));
    expect_same(static_cast<double>(integer(rng)));
  }
  // Every binade across and around the fast path's range, both signs.
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  for (int e = -24; e <= 44; ++e) {
    for (int i = 0; i < 1000; ++i) {
      const double v = std::ldexp(mantissa(rng), e);
      expect_same(v);
      expect_same(-v);
    }
  }
  // Exact ties at the 12th significant digit: v = odd * 2^-(12 - x) puts
  // v * 10^(11 - x) halfway between two integers for decimal exponent x.
  for (int x = -5; x <= 11; ++x) {
    const double unit = std::ldexp(1.0, x - 12);
    std::uniform_int_distribution<std::uint64_t> pick(
        static_cast<std::uint64_t>(std::pow(10.0, x) / unit),
        static_cast<std::uint64_t>(std::pow(10.0, x + 1) / unit));
    for (int i = 0; i < 2000; ++i) {
      const auto k = static_cast<double>(pick(rng) | 1U);
      expect_same(k * unit);
      expect_same(-k * unit);
    }
  }
  // Carries to the next power of ten, and each side of the fixed-notation
  // bounds 1e-5/1e-4 and 1e11/1e12.
  for (int x = -7; x <= 13; ++x) {
    with_neighbours(9.99999999999950 * std::pow(10.0, x));
    with_neighbours(9.99999999999949 * std::pow(10.0, x));
    with_neighbours(std::pow(10.0, x));
  }
  for (const double edge :
       {999999999999.5, 999999999999.4, 99999999999.95, 0.0000999999999999995,
        0.00000999999999999995, 1e-4, 1e-5, 1e11, 1e12, 123456789012.5,
        123456789013.5, 0.5, 2.5, 1.0, 2.0, 1099511627776.0}) {
    with_neighbours(edge);
    with_neighbours(std::nextafter(std::nextafter(edge, 0.0), 0.0));
    with_neighbours(std::nextafter(std::nextafter(edge, 1e300), 1e300));
  }
  // Zeros, subnormals, the normal minimum and non-finite values.
  for (const std::uint64_t bits :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x000fffffffffffff},
        std::uint64_t{0x0010000000000000}, std::uint64_t{0x8000000000000000},
        std::uint64_t{0x8000000000000001}, std::uint64_t{0x800fffffffffffff},
        std::uint64_t{0x7ff0000000000000}, std::uint64_t{0xfff0000000000000},
        std::uint64_t{0x7ff8000000000000}}) {
    expect_same(std::bit_cast<double>(bits));
  }
  EXPECT_GT(checked, 1'000'000U);
}

TEST(CsvNumbers, IntegerTextMatchesStreamFormatting) {
  NumberBuffer buf;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{5998}, std::uint64_t{0x5a2b3c4d5e6f7},
        std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_EQ(integer_text(buf, v), std::to_string(v));
    std::ostringstream hex;
    hex << std::hex << v;
    EXPECT_EQ(integer_text(buf, v, 16), hex.str());
  }
}

TEST(CsvNumbers, FieldToDoubleKeepsStodAcceptedSet) {
  EXPECT_EQ(field_to_double("1.5", "x"), 1.5);
  EXPECT_EQ(field_to_double(" 1.5", "x"), 1.5);
  EXPECT_EQ(field_to_double("+1.5", "x"), 1.5);
  EXPECT_EQ(field_to_double("0x1p3", "x"), 8.0);
  EXPECT_TRUE(std::signbit(field_to_double("-0.000000", "x")));
  EXPECT_TRUE(std::isinf(field_to_double("inf", "x")));
  for (const char* bad : {"1.5x", "", "1.5 ", "abc", "1e400", "4.9e-324"}) {
    try {
      (void)field_to_double(bad, "lat");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("CSV: bad double for lat: '") + bad + "'");
    }
  }
}

TEST(CsvNumbers, FieldToU64RejectsPartialFields) {
  EXPECT_EQ(field_to_u64("4670000", "n"), 4670000U);
  EXPECT_EQ(field_to_u64("5a2b", "n", 16), 0x5a2bU);
  for (const char* bad : {"", "12x", "-1", "+1", " 1", "18446744073709551616"}) {
    EXPECT_THROW((void)field_to_u64(bad, "n"), std::runtime_error) << bad;
  }
}

TEST(CsvNumbers, FieldToU32RejectsValuesAboveUint32) {
  EXPECT_EQ(field_to_u32("4294967295", "n"), 4294967295U);
  for (const char* bad : {"4294967296", "4294967297", "", "1x"}) {
    try {
      (void)field_to_u32(bad, "county");
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("CSV: bad integer for county: '") + bad + "'");
    }
  }
}

// ------------------------------------------------------------------ table ----

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Numeric column is right-aligned: "    1" under "12345".
  EXPECT_NE(s.find("    1\n"), std::string::npos);
}

TEST(TextTableTest, RejectsMismatchedRowWidth) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTableTest, EmptyTableRendersEmpty) {
  TextTable t;
  EXPECT_EQ(t.render(), "");
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Format, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(79287), "79,287");
  EXPECT_EQ(fmt_count(4672500), "4,672,500");
  EXPECT_EQ(fmt_count(-12345), "-12,345");
}

TEST(Format, Percentages) {
  EXPECT_EQ(fmt_pct(0.745, 1), "74.5%");
  EXPECT_EQ(fmt_pct(0.9989, 2), "99.89%");
}

// ------------------------------------------------------------------- json ----

TEST(JsonEscape, ControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\x01") ), "nul\\u0001");
}

TEST(JsonWriterTest, ObjectWithValues) {
  std::ostringstream out;
  {
    JsonWriter w(out, /*pretty=*/false);
    w.begin_object();
    w.value("name", "starlink");
    w.value("sats", 8000LL);
    w.value("eff", 4.5);
    w.end_object();
  }
  EXPECT_EQ(out.str(), R"({"name":"starlink","sats":8000,"eff":4.5})");
}

TEST(JsonWriterTest, NestedContainers) {
  std::ostringstream out;
  {
    JsonWriter w(out, false);
    w.begin_object();
    w.begin_array("xs");
    w.element(1LL);
    w.element(2LL);
    w.end_array();
    w.begin_object("inner");
    w.value("k", "v");
    w.end_object();
    w.end_object();
  }
  EXPECT_EQ(out.str(), R"({"xs":[1,2],"inner":{"k":"v"}})");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  std::ostringstream out;
  {
    JsonWriter w(out, false);
    w.begin_array();
    w.element(std::nan(""));
    w.end_array();
  }
  EXPECT_EQ(out.str(), "[null]");
}

// The oracle for JsonWriter's numbers: printf("%.12g"), with non-finite
// values written as null.
std::string printf_12g(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

TEST(JsonWriterTest, NumbersMatchPrintf12gOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.1,
                                1e300,
                                -1e300,
                                1e-300,
                                -1e-300,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::nan(""),
                                inf,
                                -inf};
  // Integers up to 2^53, where %g switches to exponent form past 12 digits.
  for (int k = 0; k <= 53; ++k) {
    const double p = std::ldexp(1.0, k);
    values.insert(values.end(), {p, p - 1.0, -p});
  }
  for (double p = 1.0; p <= 1e16; p *= 10.0) {
    values.insert(values.end(), {p, p - 1.0, p + 1.0});
  }
  // Round-half cases at the 12th significant digit: exact integer ties
  // (13 digits ending in 5) and decimal near-ties across magnitudes.
  for (std::int64_t t : {1000000000005LL, 1000000000015LL, 2500000000005LL,
                         9999999999995LL, 1234567890125LL, 1234567890135LL}) {
    values.insert(values.end(), {static_cast<double>(t),
                                 -static_cast<double>(t)});
  }
  for (int e = -30; e <= 30; ++e) {
    for (double mantissa : {1.000000000005, 1.234567890125, 9.999999999995,
                            0.5, 2.5}) {
      values.push_back(mantissa * std::pow(10.0, e));
    }
  }
  // Seeded bit patterns: subnormals (zero exponent field) and arbitrary
  // finite doubles.
  std::mt19937_64 rng(12);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFULL));
  }
  for (int i = 0; i < 20000;) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    values.push_back(v);
    ++i;
  }

  std::ostringstream out;
  {
    JsonWriter w(out, /*pretty=*/false);
    w.begin_array();
    for (double v : values) w.element(v);
    w.end_array();
  }
  const std::string text = out.str();
  ASSERT_GE(text.size(), 2U);
  ASSERT_EQ(text.front(), '[');
  ASSERT_EQ(text.back(), ']');
  std::istringstream fields(text.substr(1, text.size() - 2));
  std::string field;
  std::size_t i = 0;
  for (; std::getline(fields, field, ','); ++i) {
    ASSERT_LT(i, values.size());
    ASSERT_EQ(field, printf_12g(values[i]))
        << "value " << i << " bits 0x" << std::hex
        << std::bit_cast<std::uint64_t>(values[i]);
  }
  EXPECT_EQ(i, values.size());
}

TEST(JsonWriterTest, MisuseThrows) {
  std::ostringstream out;
  JsonWriter w(out, false);
  EXPECT_THROW(w.end_object(), std::logic_error);
  EXPECT_THROW(w.value("key", 1.0), std::logic_error);
  w.begin_array();
  EXPECT_THROW(w.value("key", 1.0), std::logic_error);
  EXPECT_THROW(w.end_object(), std::logic_error);
}

TEST(JsonWriterTest, PrettyOutputHasNewlines) {
  std::ostringstream out;
  {
    JsonWriter w(out, true);
    w.begin_object();
    w.value("a", 1LL);
    w.value("b", 2LL);
    w.end_object();
  }
  EXPECT_NE(out.str().find('\n'), std::string::npos);
}

// ------------------------------------------------------------- json parse ----

TEST(JsonParse, Scalars) {
  EXPECT_EQ(json_parse("null").type, JsonValue::Type::kNull);
  EXPECT_TRUE(json_parse("true").bool_v);
  EXPECT_FALSE(json_parse("false").bool_v);
  EXPECT_DOUBLE_EQ(json_parse("-12.5e2").num_v, -1250.0);
  EXPECT_EQ(json_parse("\"a\\nb\"").str_v, "a\nb");
}

TEST(JsonParse, NestedContainers) {
  const JsonValue v =
      json_parse(R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue& a = v.at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.items.size(), 3U);
  EXPECT_DOUBLE_EQ(a.items[1].num_v, 2.0);
  EXPECT_EQ(a.items[2].at("b").str_v, "x");
  EXPECT_EQ(v.at("c").at("d").type, JsonValue::Type::kNull);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), JsonParseError);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(json_parse("\"\\u0041\"").str_v, "A");
  EXPECT_EQ(json_parse("\"\\u00e9\"").str_v, "\xc3\xa9");
  EXPECT_EQ(json_parse("\"\\u20ac\"").str_v, "\xe2\x82\xac");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), JsonParseError);
  EXPECT_THROW(json_parse("{"), JsonParseError);
  EXPECT_THROW(json_parse("[1,]"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(json_parse("01"), JsonParseError);
  EXPECT_THROW(json_parse("nul"), JsonParseError);
  EXPECT_THROW(json_parse("1 2"), JsonParseError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(json_parse("\"tab\tchar\""), JsonParseError);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  std::ostringstream out;
  {
    JsonWriter json(out, /*pretty=*/false);
    json.begin_object();
    json.value("name", "quote \" and backslash \\");
    json.value("n", 42LL);
    json.value("key\twith \"escapes\"", "line\nbreak");
    json.begin_array("xs");
    json.element(1.5);
    json.element("two");
    json.end_array();
    json.end_object();
  }
  const JsonValue v = json_parse(out.str());
  EXPECT_EQ(v.at("name").str_v, "quote \" and backslash \\");
  EXPECT_DOUBLE_EQ(v.at("n").num_v, 42.0);
  EXPECT_EQ(v.at("key\twith \"escapes\"").str_v, "line\nbreak");
  ASSERT_EQ(v.at("xs").items.size(), 2U);
  EXPECT_EQ(v.at("xs").items[1].str_v, "two");
}

}  // namespace
}  // namespace leodivide::io

// Appended: randomized CSV round-trip property tests.
#include "leodivide/stats/rng.hpp"

namespace leodivide::io {
namespace {

std::string random_field(stats::Pcg32& rng) {
  // '\r' included: the reader preserves CR (and CRLF) inside quoted fields
  // exactly, so arbitrary CR/LF mixtures must round-trip.
  static constexpr char kAlphabet[] = "abcXYZ019 ,\"\r\n\t;|-_";
  const std::uint32_t len = 1 + rng.next_below(11);
  std::string out;
  for (std::uint32_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

class CsvFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzzRoundTrip, ArbitraryContentSurvives) {
  stats::Pcg32 rng(GetParam());
  std::vector<CsvRow> rows;
  const std::uint32_t n_rows = 2 + rng.next_below(10);
  const std::uint32_t n_cols = 1 + rng.next_below(6);
  for (std::uint32_t r = 0; r < n_rows; ++r) {
    CsvRow row;
    for (std::uint32_t c = 0; c < n_cols; ++c) {
      row.push_back(random_field(rng));
    }
    rows.push_back(std::move(row));
  }
  std::string text;
  for (const auto& row : rows) text += csv_record(row);
  std::ostringstream out;
  {
    CsvWriter writer(out);
    writer.write_records(text, rows.size());
  }
  std::istringstream in(out.str());
  CsvReader reader(in);
  CsvRow row;
  std::size_t idx = 0;
  while (reader.next(row)) {
    ASSERT_LT(idx, rows.size());
    // Blank-line skipping means all-empty single-field rows may vanish;
    // emit them only when the original row had content.
    EXPECT_EQ(row.size(), rows[idx].size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c], rows[idx][c]) << "seed " << GetParam() << " row "
                                      << idx << " col " << c;
    }
    ++idx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 17));
}  // namespace
}  // namespace leodivide::io
