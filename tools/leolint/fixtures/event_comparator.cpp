// Fixture: a sort comparator over records keyed on a double time field.
// The clean form orders on (time, kind, cell, sat) with strict < only —
// its double field never meets == or != — so R4 must stay silent on it.
// The naive variant that tie-breaks with == on the double time field is
// what R4 exists to catch.

#include <cstdint>

struct Ev {
  double time_s = 0.0;
  int kind = 0;
  std::uint32_t cell = 0;
  std::uint32_t sat = 0;
};

// The clean form: strict < on the double field, integer
// tie-breaks after.
constexpr bool event_less(const Ev& a, const Ev& b) {
  if (a.time_s < b.time_s) return true;
  if (b.time_s < a.time_s) return false;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.cell != b.cell) return a.cell < b.cell;
  return a.sat < b.sat;
}

// The rejected idiom: exact float equality as the tie test.
bool naive_less(const Ev& a, const Ev& b) {
  if (a.time_s == b.time_s) return a.sat < b.sat;  // line 28: float-eq
  return a.time_s < b.time_s;
}
