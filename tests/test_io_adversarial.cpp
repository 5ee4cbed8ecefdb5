// Adversarial inputs for the io/ CSV parser and the tests' JSON reader
// (tests/oracles/json.hpp). Every case in this deterministic
// corpus must produce a graceful, typed error (or a documented lenient
// parse) — never a crash, hang, or foreign exception type. CI runs this
// suite under ASan/UBSan, and the deep-nesting cases double as
// stack-overflow regression tests for the recursive-descent JSON parser.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "leodivide/io/csv.hpp"
#include "oracles/json.hpp"

namespace {

using leodivide::io::CsvReader;
using leodivide::io::CsvRow;
using leodivide::oracle::json_parse;
using leodivide::oracle::JsonParseError;

// Parses one CSV line into a fresh row.
CsvRow parse_line(std::string_view line) {
  CsvRow row;
  leodivide::io::parse_csv_line(line, row);
  return row;
}

// ------------------------------------------------------------------- CSV --

TEST(CsvAdversarial, TruncatedQuoteInLineThrows) {
  EXPECT_THROW((void)parse_line("\"abc"), std::runtime_error);
  EXPECT_THROW((void)parse_line("a,\"bc"), std::runtime_error);
  EXPECT_THROW((void)parse_line("\""), std::runtime_error);
}

TEST(CsvAdversarial, QuoteInsideUnquotedFieldThrows) {
  EXPECT_THROW((void)parse_line("ab\"c,2"), std::runtime_error);
  EXPECT_THROW((void)parse_line("1,x\"\",3"), std::runtime_error);
}

TEST(CsvAdversarial, UnterminatedQuotedRecordAtEofThrows) {
  std::istringstream in("h1,h2\n\"spans\nlines,but never closes");
  CsvReader reader(in);
  CsvRow row;
  ASSERT_TRUE(reader.next(row));  // header
  EXPECT_THROW((void)reader.next(row), std::runtime_error);
}

TEST(CsvAdversarial, LoneQuoteLineAtEofThrows) {
  std::istringstream in("\"");
  CsvReader reader(in);
  CsvRow row;
  EXPECT_THROW((void)reader.next(row), std::runtime_error);
}

TEST(CsvAdversarial, EmbeddedNulBytesAreFieldContent) {
  const std::string line("a\0b,c", 5);
  const CsvRow row = parse_line(line);
  ASSERT_EQ(row.size(), 2U);
  EXPECT_EQ(row[0], std::string("a\0b", 3));
  EXPECT_EQ(row[1], "c");
}

TEST(CsvAdversarial, EmbeddedNulInsideQuotedFieldSurvives) {
  const std::string line("\"x\0y\",z", 7);
  const CsvRow row = parse_line(line);
  ASSERT_EQ(row.size(), 2U);
  EXPECT_EQ(row[0], std::string("x\0y", 3));
}

TEST(CsvAdversarial, PathologicallyLongFieldParses) {
  std::string line = "a,";
  line.append(1 << 20, 'x');  // 1 MiB single field
  const std::string big = line.substr(2);
  line += ",b";
  const CsvRow row = parse_line(line);
  ASSERT_EQ(row.size(), 3U);
  EXPECT_EQ(row[1].size(), big.size());
}

TEST(CsvAdversarial, ManyEmptyFields) {
  const CsvRow row = parse_line(std::string(999, ','));
  EXPECT_EQ(row.size(), 1000U);
  for (const auto& f : row) EXPECT_TRUE(f.empty());
}

TEST(CsvAdversarial, CrOnlyRecordIsSkippedAsBlank) {
  std::istringstream in("\r\n\r\na,b\r\n");
  CsvReader reader(in);
  CsvRow row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row, (CsvRow{"a", "b"}));
  EXPECT_FALSE(reader.next(row));
}

TEST(CsvAdversarial, AlternatingEscapedQuotes) {
  const CsvRow row = parse_line("\"a\"\"b\"\"c\",\"\"\"\"");
  ASSERT_EQ(row.size(), 2U);
  EXPECT_EQ(row[0], "a\"b\"c");
  EXPECT_EQ(row[1], "\"");
}

// ------------------------------------------------------------------ JSON --

TEST(JsonAdversarial, TruncatedDocumentsThrow) {
  for (const char* doc : {"{", "[", "[1,", "{\"a\":", "{\"a\"", "\"abc",
                          "tru", "nul", "fals", "-", "[{\"k\": [", "{}}"}) {
    EXPECT_THROW((void)json_parse(doc), JsonParseError) << doc;
  }
}

TEST(JsonAdversarial, BadEscapesThrow) {
  for (const char* doc : {R"("\x")", R"("\u12")", R"("\u12G4")", R"("\")",
                          R"("\u")", R"(["\q"])"}) {
    EXPECT_THROW((void)json_parse(doc), JsonParseError) << doc;
  }
}

TEST(JsonAdversarial, DeepNestingIsBoundedNotACrash) {
  // 100k opening brackets: a parser without a depth limit would overflow
  // the stack here. The limit must produce a typed error instead.
  const std::string deep_arrays(100000, '[');
  EXPECT_THROW((void)json_parse(deep_arrays), JsonParseError);

  std::string deep_objects;
  for (int i = 0; i < 100000; ++i) deep_objects += "{\"a\":";
  EXPECT_THROW((void)json_parse(deep_objects), JsonParseError);
}

TEST(JsonAdversarial, NestingJustBelowTheLimitParses) {
  const int depth = 200;  // below the parser's 256 cap
  std::string doc(depth, '[');
  doc += "1";
  doc.append(depth, ']');
  const auto v = json_parse(doc);
  EXPECT_TRUE(v.is_array());
}

TEST(JsonAdversarial, NanAndInfLiteralsAreRejected) {
  for (const char* doc : {"NaN", "nan", "Infinity", "-Infinity", "inf",
                          "[NaN]", "{\"x\": Infinity}"}) {
    EXPECT_THROW((void)json_parse(doc), JsonParseError) << doc;
  }
}

TEST(JsonAdversarial, OverflowingNumberIsAParseErrorNotOutOfRange) {
  // Syntactically valid JSON beyond double range must surface as
  // JsonParseError, not leak std::out_of_range from the conversion.
  for (const char* doc : {"1e999", "-1e999", "[1e400]"}) {
    EXPECT_THROW((void)json_parse(doc), JsonParseError) << doc;
  }
}

TEST(JsonAdversarial, MalformedNumbersThrow) {
  for (const char* doc : {"01", "0123", "1.", ".5", "+1", "1e", "1e+",
                          "--1", "0x10", "1.2.3"}) {
    EXPECT_THROW((void)json_parse(doc), JsonParseError) << doc;
  }
}

TEST(JsonAdversarial, EmbeddedNulAndControlCharsInStringsThrow) {
  EXPECT_THROW((void)json_parse(std::string_view("\"a\0b\"", 5)),
               JsonParseError);
  EXPECT_THROW((void)json_parse("\"a\nb\""), JsonParseError);
  EXPECT_THROW((void)json_parse("\"a\tb\""), JsonParseError);
}

TEST(JsonAdversarial, StructuralGarbageThrows) {
  for (const char* doc : {"{} trailing", "[1] 2", "{\"a\" 1}", "{1: 2}",
                          "[1 2]", "[,]", "{,}", "", "  ", ":", ","}) {
    EXPECT_THROW((void)json_parse(doc), JsonParseError) << doc;
  }
}

TEST(JsonAdversarial, EscapedNulIsPreservedContent) {
  const auto v = json_parse(R"("a\u0000b")");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.str_v, std::string("a\0b", 3));
}

}  // namespace
