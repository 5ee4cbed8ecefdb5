#pragma once
// The discrete-event vocabulary of the event-driven simulator core: typed
// satellite rise/set and near-tangent graze events per (cell, satellite)
// pair, with a *stable total order* on (time, kind, cell, sat) so event
// execution — and therefore every downstream trace — is byte-reproducible
// at any thread count. The comparator never tests floating-point equality:
// ties on time fall through to the integer fields via two strict `<`
// probes, which is both deterministic and clean under the float-eq
// determinism lint rule.

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

namespace leodivide::event {

/// What happened at an event. The numeric order is part of the events'
/// total order (initial state sorts before a rise at the same instant,
/// rises before sets, sets before grazes).
enum class EventKind : std::uint8_t {
  kInitial = 0,  ///< the t = 0 seeding of the contact set
  kRise = 1,     ///< satellite enters the cell's coverage cone
  kSet = 2,      ///< satellite leaves the cell's coverage cone
  kGraze = 3,    ///< near-tangent pass; sign change unresolved
};

/// Human-readable kind name ("initial", "rise", "set", "graze").
[[nodiscard]] constexpr std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kInitial: return "initial";
    case EventKind::kRise: return "rise";
    case EventKind::kSet: return "set";
    case EventKind::kGraze: return "graze";
  }
  return "unknown";
}

/// One scheduled event. [window_lo_s, window_hi_s] is the certified
/// bracket within which every visibility flip of the pair occurs; `time_s`
/// is the ordering key and equals the window's lower edge — the earliest
/// instant the transition can take effect — so sorting the events yields
/// windows in ascending start order, which is what the engine's dirty-span
/// merge requires.
struct Event {
  double time_s = 0.0;
  double window_lo_s = 0.0;
  double window_hi_s = 0.0;
  EventKind kind = EventKind::kInitial;
  std::uint32_t cell = 0;
  std::uint32_t sat = 0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// The events' strict weak (in fact total) order: ascending (time, kind,
/// cell, sat). Distinct events never compare equivalent, so the sorted
/// sequence is a pure function of the event set.
[[nodiscard]] constexpr bool event_less(const Event& a,
                                        const Event& b) noexcept {
  if (a.time_s < b.time_s) return true;
  if (b.time_s < a.time_s) return false;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.cell != b.cell) return a.cell < b.cell;
  return a.sat < b.sat;
}

/// Puts `events` in execution order under event_less. Since distinct
/// events never tie, the result depends only on the event set, never on
/// the order the events were appended in.
inline void sort_events(std::vector<Event>& events) {
  std::sort(events.begin(), events.end(), event_less);
}

}  // namespace leodivide::event
