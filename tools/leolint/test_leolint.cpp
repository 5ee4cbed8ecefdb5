// Fixture-driven tests for every leolint rule (R1–R6), the annotation
// machinery, and the CLI-visible output format. Each fixture under
// fixtures/ encodes one rule's positive and negative cases at known line
// numbers.

#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using leolint::Finding;
using leolint::lint_paths;
using leolint::lint_source;

std::string fixture(const std::string& name) {
  return std::string(LEOLINT_FIXTURES_DIR) + "/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name) {
  return lint_paths({fixture(name)});
}

// (line, rule) pairs, sorted — the shape every expectation checks.
std::vector<std::pair<std::size_t, std::string>> shape(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::size_t, std::string>> out;
  out.reserve(findings.size());
  for (const auto& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

TEST(LeolintFixtures, R1NoRand) {
  const auto found = shape(lint_fixture("r1_no_rand.cpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {5, "no-rand"}, {6, "no-rand"}, {7, "no-rand"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, R2NoWallclock) {
  const auto found = shape(lint_fixture("r2_no_wallclock.cpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {6, "no-wallclock"}, {9, "no-wallclock"}, {11, "no-wallclock"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, R3UnorderedIter) {
  const auto found = shape(lint_fixture("r3_unordered_iter.cpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {8, "unordered-iter"}, {16, "unordered-iter"}, {21, "unordered-iter"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, R4FloatEq) {
  const auto found = shape(lint_fixture("r4_float_eq.cpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {3, "float-eq"}, {4, "float-eq"}, {5, "float-eq"}, {7, "float-eq"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, R5PragmaOnce) {
  const auto found = shape(lint_fixture("r5_missing_pragma.hpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {1, "pragma-once"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, R6UsingNamespace) {
  const auto found = shape(lint_fixture("r6_using_namespace.hpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {7, "using-namespace"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, R7RawCast) {
  const auto found = shape(lint_fixture("r7_raw_cast.cpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {5, "raw-cast"}, {8, "raw-cast"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, BadAnnotationsAreRejected) {
  const auto found = shape(lint_fixture("bad_annotation.cpp"));
  // An invalid annotation does not waive the underlying finding, and is
  // reported itself.
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {6, "bad-annotation"},
      {6, "unordered-iter"},
      {10, "bad-annotation"},
      {10, "float-eq"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintFixtures, CleanFileHasNoFindings) {
  EXPECT_TRUE(lint_fixture("clean.cpp").empty());
}

TEST(LeolintFixtures, EventComparatorIdiomIsCovered) {
  // A total order over records keyed on a double time field must be inside
  // the determinism rules' example corpus: the strict-< idiom lints clean,
  // and the naive ==-on-time tie-break is diagnosed by R4.
  const auto found = shape(lint_fixture("event_comparator.cpp"));
  const std::vector<std::pair<std::size_t, std::string>> expected{
      {28, "float-eq"}};
  EXPECT_EQ(found, expected);
}

TEST(LeolintRules, PathExemptions) {
  const std::string rng = "double noise() { return rand() / 32768.0; }\n";
  EXPECT_TRUE(lint_source("src/leodivide/stats/rng.cpp", rng).empty());
  EXPECT_EQ(lint_source("src/leodivide/core/sizing.cpp", rng).size(), 1U);

  const std::string clock =
      "long t() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_TRUE(lint_source("src/leodivide/obs/trace.cpp", clock).empty());
  EXPECT_TRUE(
      lint_source("bench/bench_common.hpp", "#pragma once\n" + clock).empty());
  EXPECT_EQ(lint_source("src/leodivide/sim/clock.cpp", clock).size(), 1U);

  const std::string cast =
      "const char* c(const void* p) {"
      " return reinterpret_cast<const char*>(p); }\n";
  EXPECT_TRUE(
      lint_source("src/leodivide/snapshot/format.cpp", cast).empty());
  EXPECT_EQ(lint_source("src/leodivide/io/csv.cpp", cast).size(), 1U);
}

// The acceptance-criteria scenario: seeding a rand() call into
// core/sizing.cpp must produce a nonzero-exit diagnostic with file:line.
TEST(LeolintRules, SeededRandInSizingIsDiagnosed) {
  const std::string seeded =
      "#include <cstdlib>\n"
      "namespace leodivide::core {\n"
      "int jitter() { return rand() % 3; }\n"
      "}  // namespace leodivide::core\n";
  const auto findings = lint_source("src/leodivide/core/sizing.cpp", seeded);
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "no-rand");
  EXPECT_EQ(findings[0].line, 3U);
  EXPECT_EQ(leolint::format(findings[0]).substr(0, 34),
            "src/leodivide/core/sizing.cpp:3: n");
}

TEST(LeolintRules, AnnotationOnPrecedingLineApplies) {
  const std::string text =
      "#include <unordered_set>\n"
      "int f() {\n"
      "  std::unordered_set<int> s;\n"
      "  int total = 0;\n"
      "  // leolint:allow(unordered-iter): sum is order-independent\n"
      "  for (int v : s) total += v;\n"
      "  return total;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/leodivide/x.cpp", text).empty());
}

TEST(LeolintRules, WholeTreeScanIsSortedAndDeterministic) {
  const auto a = lint_paths({std::string(LEOLINT_FIXTURES_DIR)});
  const auto b = lint_paths({std::string(LEOLINT_FIXTURES_DIR)});
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file, b[i].file);
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].rule, b[i].rule);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const Finding& x, const Finding& y) {
                               return std::tie(x.file, x.line, x.rule) <
                                      std::tie(y.file, y.line, y.rule);
                             }));
}

TEST(LeolintRules, MissingPathThrows) {
  EXPECT_THROW((void)lint_paths({fixture("does_not_exist.cpp")}),
               std::runtime_error);
}

}  // namespace
