#include "leodivide/sim/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace leodivide::sim {

MaxFlow::MaxFlow(std::size_t vertices) : graph_(vertices) {
  if (vertices < 2) throw std::invalid_argument("MaxFlow: need >= 2 vertices");
}

void MaxFlow::add_edge(std::uint32_t u, std::uint32_t v, std::int64_t cap) {
  if (u >= graph_.size() || v >= graph_.size()) {
    throw std::out_of_range("MaxFlow::add_edge");
  }
  if (cap < 0) throw std::invalid_argument("MaxFlow: negative capacity");
  graph_[u].push_back({v, static_cast<std::uint32_t>(graph_[v].size()), cap});
  graph_[v].push_back(
      {u, static_cast<std::uint32_t>(graph_[u].size() - 1), 0});
}

bool MaxFlow::bfs(std::uint32_t s, std::uint32_t t) {
  level_.assign(graph_.size(), -1);
  std::queue<std::uint32_t> q;
  level_[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const std::uint32_t v = q.front();
    q.pop();
    for (const Edge& e : graph_[v]) {
      if (e.cap > 0 && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        q.push(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

std::int64_t MaxFlow::dfs(std::uint32_t v, std::uint32_t t,
                          std::int64_t pushed) {
  if (v == t) return pushed;
  for (std::size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
    Edge& e = graph_[v][i];
    if (e.cap <= 0 || level_[v] + 1 != level_[e.to]) continue;
    const std::int64_t d = dfs(e.to, t, std::min(pushed, e.cap));
    if (d > 0) {
      e.cap -= d;
      graph_[e.to][e.rev].cap += d;
      return d;
    }
  }
  return 0;
}

std::int64_t MaxFlow::solve(std::uint32_t s, std::uint32_t t) {
  if (s >= graph_.size() || t >= graph_.size() || s == t) {
    throw std::invalid_argument("MaxFlow::solve: bad terminals");
  }
  std::int64_t flow = 0;
  while (bfs(s, t)) {
    iter_.assign(graph_.size(), 0);
    while (true) {
      const std::int64_t pushed =
          dfs(s, t, std::numeric_limits<std::int64_t>::max());
      if (pushed == 0) break;
      flow += pushed;
    }
  }
  return flow;
}

FlowBound optimal_slot_bound(const std::vector<SchedCell>& cells,
                             const std::vector<orbit::SatState>& sats,
                             const SchedulerConfig& config) {
  FlowBound bound;
  if (cells.empty()) {
    bound.slot_coverage = 1.0;
    return bound;
  }
  // Vertex layout: 0 = source, 1..C = cells, C+1..C+S = satellites,
  // C+S+1 = sink.
  const std::size_t c_count = cells.size();
  const std::size_t s_count = sats.size();
  MaxFlow flow(c_count + s_count + 2);
  const auto source = static_cast<std::uint32_t>(0);
  const auto sink = static_cast<std::uint32_t>(c_count + s_count + 1);

  const double cos_psi =
      coverage_geometry(coverage_radius_km(sats), config.min_elevation_deg)
          .cos_psi;

  std::vector<geo::Vec3> sat_units;
  sat_units.reserve(s_count);
  for (const auto& s : sats) sat_units.push_back(s.ecef_km.unit());

  for (std::size_t ci = 0; ci < c_count; ++ci) {
    // Slot accounting mirrors BeamBudget: a whole-beam cell consumes
    // beams * beamspread slots; a single-beam cell shares a beam and
    // consumes one slot.
    const auto slots =
        cells[ci].beams_needed >= 2
            ? static_cast<std::int64_t>(cells[ci].beams_needed) *
                  config.beamspread
            : 1;
    bound.slots_demanded += slots;
    flow.add_edge(source, static_cast<std::uint32_t>(1 + ci), slots);
    const geo::Vec3 cell_unit = cells[ci].ecef_km.unit();
    for (std::size_t si = 0; si < s_count; ++si) {
      if (cell_unit.dot(sat_units[si]) < cos_psi) continue;
      flow.add_edge(static_cast<std::uint32_t>(1 + ci),
                    static_cast<std::uint32_t>(1 + c_count + si), slots);
    }
  }
  const auto sat_slots = static_cast<std::int64_t>(
      config.beams_per_satellite) * config.beamspread;
  for (std::size_t si = 0; si < s_count; ++si) {
    flow.add_edge(static_cast<std::uint32_t>(1 + c_count + si), sink,
                  sat_slots);
  }
  bound.slots_served = flow.solve(source, sink);
  bound.slot_coverage =
      bound.slots_demanded == 0
          ? 1.0
          : static_cast<double>(bound.slots_served) /
                static_cast<double>(bound.slots_demanded);
  return bound;
}

}  // namespace leodivide::sim
