// serve_mix: a closed loop of client connections against an in-process
// analysis Server on loopback. Each client replays its own seeded script of
// deltas (add/remove/upgrade locations, county income and plan price
// changes) mixed with resize, served-fraction and affordability queries,
// and sends its next request only when the previous reply arrived.
//
// One pass is a round: a fresh ServiceState over the baseline profile, with
// every client replaying the first kRoundRequests requests of its script.
// Every round does the same work, so the engine's memo and the mutated
// profile never grow past one round's worth, however fast the server is.
//
// The request mix is the one of examples/serve_replay.txt, the
// analysis_client script CI replays against a live server (see ScriptGen).
// Query parameters come from the paper's Table 2 / Fig 2 grids, where the
// replay's own lie, so repeated queries find their per-region partials in
// the engine's memo and miss it after a delta dirtied their region.
//
// Verification checks every delta against the server's journal and every
// reply's type, then replays the journal on a plain DemandProfile and
// answers queries with the plain library calls (the `analysis_client
// --batch` semantics). The library answer costs 20-100x the engine's, so
// values are checked on an evenly spread sample of kVerifiedQueries queries
// per round. Two clients interleave, so a query is known only to have run
// between two journal lengths: `lo`, the deltas acknowledged before it was
// sent, and `hi`, the deltas sent before its reply arrived. It passes when
// its reply equals the library answer at one of those versions, bit for
// bit.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/scenario.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/serve/client.hpp"
#include "leodivide/serve/server.hpp"

namespace perfbench {
namespace {

using namespace leodivide;
using protocol_type = serve::protocol::MsgType;
namespace protocol = serve::protocol;

/// Requests per client in one round (one pass).
constexpr std::size_t kRoundRequests = 1500;
/// Queries per round whose values are checked against the library.
constexpr std::size_t kVerifiedQueries = 100;

/// Client connections and server workers: 2, or fewer on a smaller host.
std::size_t connections(const Options& opt) {
  return std::min<std::size_t>(2, opt.threads);
}

struct Request {
  protocol_type type = protocol_type::kQueryResize;
  demand::DeltaOp op;  ///< kApplyDelta
  double a = 0.0;      ///< resize: beamspread; served: beamspread
  double b = 0.0;      ///< resize: oversub cap; served: oversub
  std::string plan;    ///< afford
  double threshold = 0.0;
};

std::string kind_of(protocol_type type) {
  switch (type) {
    case protocol_type::kApplyDelta: return "delta";
    case protocol_type::kQueryResize: return "resize";
    case protocol_type::kQueryServedFraction: return "served";
    default: return "afford";
  }
}

/// The reply type a request must get.
protocol_type reply_type_of(protocol_type type) {
  switch (type) {
    case protocol_type::kApplyDelta: return protocol_type::kDeltaApplied;
    case protocol_type::kQueryResize: return protocol_type::kResizeResult;
    case protocol_type::kQueryServedFraction:
      return protocol_type::kServedFractionResult;
    default: return protocol_type::kAffordabilityResult;
  }
}

std::string payload_of(const Request& r) {
  switch (r.type) {
    case protocol_type::kApplyDelta:
      return protocol::encode(protocol::ApplyDeltaRequest{{r.op}});
    case protocol_type::kQueryResize:
      return protocol::encode(protocol::QueryResizeRequest{r.a, r.b});
    case protocol_type::kQueryServedFraction:
      return protocol::encode(protocol::QueryServedFractionRequest{r.a, r.b});
    default:
      return protocol::encode(
          protocol::QueryAffordabilityRequest{r.plan, r.threshold});
  }
}

/// One client's request stream, in the proportions of
/// examples/serve_replay.txt. Of that script's 18 requests, 6 are deltas
/// (2 add, 1 remove, 1 upgrade, 1 price, 1 income) and 4 each are resize,
/// served and afford queries; 3 of its 4 afford queries run at threshold
/// 0.03 and one at the server default. Its resize queries use Table 2 and
/// Fig 2 beamspreads at the 20:1 cap and its served queries points of the
/// Fig 2 grid, so parameters are drawn from those grids. Removals and
/// upgrades only take back locations this client added itself, so every
/// delta is valid whatever the other clients did in between.
class ScriptGen {
 public:
  ScriptGen(std::uint64_t seed, std::size_t client,
            const demand::DemandProfile& baseline)
      : state_(seed * 0x9e3779b97f4a7c15ULL + client + 1),
        cells_(&baseline.cells()),
        counties_(baseline.counties().size()) {
    for (const afford::ServicePlan& p : afford::paper_plans()) {
      plans_.push_back(p.name);
    }
    const core::AnalysisConfig paper;
    resize_beamspreads_ = paper.table2_beamspreads;
    resize_beamspreads_.insert(resize_beamspreads_.end(),
                               paper.fig2_beamspreads.begin(),
                               paper.fig2_beamspreads.end());
    std::sort(resize_beamspreads_.begin(), resize_beamspreads_.end());
    resize_beamspreads_.erase(
        std::unique(resize_beamspreads_.begin(), resize_beamspreads_.end()),
        resize_beamspreads_.end());
    resize_cap_ = paper.oversub_cap;
    served_beamspreads_ = paper.fig2_beamspreads;
    served_oversubs_ = paper.fig2_oversubs;
  }

  Request next() {
    Request r;
    const std::uint64_t u = below(18);
    if (u < 6) {
      r.type = protocol_type::kApplyDelta;
      r.op = next_delta();
    } else if (u < 10) {
      r.type = protocol_type::kQueryResize;
      r.a = pick(resize_beamspreads_);
      r.b = resize_cap_;
    } else if (u < 14) {
      r.type = protocol_type::kQueryServedFraction;
      r.a = pick(served_beamspreads_);
      r.b = pick(served_oversubs_);
    } else {
      r.type = protocol_type::kQueryAffordability;
      r.plan = plans_[below(plans_.size())];
      r.threshold = below(4) < 3 ? 0.03 : 0.0;  // 0: the server default
    }
    return r;
  }

 private:
  demand::DeltaOp next_delta() {
    demand::DeltaOp op;
    const std::uint64_t u = below(6);
    if (u < 2 || (u < 4 && added_.empty())) {
      op.kind = demand::DeltaKind::kAddLocations;
      op.position = uniform() < 0.5
                        ? (*cells_)[below(cells_->size())].center
                        : geo::GeoPoint{25.0 + 24.0 * uniform(),
                                        -124.0 + 57.0 * uniform()};
      op.count = static_cast<std::uint32_t>(1 + below(200));
      op.county_index = static_cast<std::uint32_t>(below(counties_));
      added_.push_back({op.position, op.count});
    } else if (u < 4) {
      op.kind = u == 2 ? demand::DeltaKind::kRemoveLocations
                       : demand::DeltaKind::kUpgradeLocations;
      const std::size_t i = below(added_.size());
      op.position = added_[i].position;
      op.count = static_cast<std::uint32_t>(1 + below(added_[i].remaining));
      added_[i].remaining -= op.count;
      if (added_[i].remaining == 0) {
        added_[i] = added_.back();
        added_.pop_back();
      }
    } else if (u == 4) {
      op.kind = demand::DeltaKind::kSetPlanPrice;
      op.plan_name = plans_[below(plans_.size())];
      op.value = std::round(3000.0 + 10000.0 * uniform()) / 100.0;
    } else {
      op.kind = demand::DeltaKind::kSetCountyIncome;
      op.county_index = static_cast<std::uint32_t>(below(counties_));
      op.value = std::round(30000.0 + 90000.0 * uniform());
    }
    return op;
  }

  std::uint64_t next_u64() {  // SplitMix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) { return next_u64() % n; }
  double pick(const std::vector<double>& values) {
    return values[below(values.size())];
  }

  struct Added {
    geo::GeoPoint position;
    std::uint32_t remaining = 0;
  };
  std::uint64_t state_;
  const std::vector<demand::CellDemand>* cells_;
  std::size_t counties_;
  std::vector<std::string> plans_;
  std::vector<double> resize_beamspreads_;
  double resize_cap_ = 0.0;
  std::vector<double> served_beamspreads_;
  std::vector<double> served_oversubs_;
  std::vector<Added> added_;
};

/// One request as the client saw it.
struct Record {
  Request request;
  protocol::Frame reply;
  std::uint64_t lo = 0;  ///< deltas acknowledged before sending
  std::uint64_t hi = 0;  ///< deltas sent before the reply arrived
  double us = 0.0;
};

/// Deltas sent and acknowledged by all clients of one server.
struct DeltaClock {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> acked{0};
};

struct ClientLog {
  std::vector<Record> records;
  std::string error;
};

void client_loop(serve::Client& client, ScriptGen script, DeltaClock& clock,
                 ClientLog& log) {
  try {
    while (log.records.size() < kRoundRequests) {
      Record rec;
      rec.request = script.next();
      const std::string payload = payload_of(rec.request);
      const bool delta = rec.request.type == protocol_type::kApplyDelta;
      rec.lo = clock.acked.load();
      if (delta) clock.sent.fetch_add(1);
      const Clock::time_point t0 = Clock::now();
      rec.reply = client.call(rec.request.type, payload);
      const Clock::time_point t1 = Clock::now();
      if (delta) clock.acked.fetch_add(1);
      rec.hi = clock.sent.load();
      rec.us = ms_between(t0, t1) * 1000.0;
      log.records.push_back(std::move(rec));
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

/// A running server with connected clients.
struct Service {
  Service(const demand::DemandProfile& baseline, std::size_t n)
      : state(baseline, serve::ServiceConfig{}),
        server(state, serve::ServerConfig{"127.0.0.1", 0, n, 64}) {
    server.start();
    clients.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      clients[i] = std::make_unique<serve::Client>();
      clients[i]->connect("127.0.0.1", server.port());
      (void)clients[i]->hello("perfbench");
    }
  }
  serve::ServiceState state;
  serve::Server server;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

/// One round's client logs, the server's journal and the round's wall time.
struct Round {
  std::vector<ClientLog> logs;
  std::vector<demand::DeltaOp> journal;
  double ms = 0.0;
};

/// Runs one round against a fresh service; obs is on while the clients run
/// when `traced`.
Round run_round(const demand::DemandProfile& baseline,
                const std::vector<ScriptGen>& scripts, bool traced) {
  Service service(baseline, scripts.size());
  DeltaClock clock;
  Round round;
  round.logs.resize(scripts.size());
  std::vector<std::thread> threads;
  set_observability(traced);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    threads.emplace_back(client_loop, std::ref(*service.clients[i]),
                         scripts[i], std::ref(clock), std::ref(round.logs[i]));
  }
  for (std::thread& t : threads) t.join();
  round.ms = ms_between(start, Clock::now());
  set_observability(false);
  round.journal = service.state.journal_copy();
  return round;
}

protocol::Frame resize_frame(const core::SizingResult& full,
                             const core::SizingResult& capped) {
  return {protocol_type::kResizeResult,
          protocol::encode(protocol::ResizeReply{
              full.satellites, full.binding_lat_deg, full.beams_on_binding,
              full.binding_cell_index, capped.satellites,
              capped.binding_lat_deg, capped.beams_on_binding,
              capped.binding_cell_index})};
}

protocol::Frame afford_frame(const afford::PlanAffordability& a) {
  return {protocol_type::kAffordabilityResult,
          protocol::encode(protocol::AffordabilityReply{
              a.plan.name, a.plan.monthly_usd, a.income_required_usd,
              a.locations_unable, a.fraction_unable})};
}

double threshold_of(const Request& r) {
  return r.threshold > 0.0 ? r.threshold : afford::kAffordabilityThreshold;
}

/// Library answer to a query on `profile`, as the reply frame the server
/// must have sent.
protocol::Frame expected_reply(const Request& r,
                               const demand::DemandProfile& profile,
                               const serve::PlanTable& plans) {
  const core::SizingModel model{};
  if (r.type == protocol_type::kQueryResize) {
    return resize_frame(core::size_full_service(profile, model, r.a),
                        core::size_with_cap(profile, model, r.a, r.b));
  }
  if (r.type == protocol_type::kQueryServedFraction) {
    protocol::ServedFractionReply reply;
    reply.cell_fraction =
        core::served_cell_fraction(profile, model.capacity, r.a, r.b);
    reply.location_fraction =
        core::served_location_fraction(profile, model.capacity, r.a, r.b);
    const std::uint32_t limit =
        core::max_locations_spread(model.capacity, r.a, r.b);
    for (const demand::CellDemand& cell : profile.cells()) {
      if (cell.underserved <= limit) {
        ++reply.served_cells;
        reply.served_locations += cell.underserved;
      }
    }
    reply.total_cells = profile.cell_count();
    reply.total_locations = profile.total_locations();
    return {protocol_type::kServedFractionResult, protocol::encode(reply)};
  }
  return afford_frame(afford::AffordabilityAnalyzer(profile).evaluate(
      plans.find(r.plan), threshold_of(r)));
}

/// Checks every reply of a round against the journal replay.
void verify(const demand::DemandProfile& baseline, const Round& round,
            Tally& tally) {
  const std::vector<demand::DeltaOp>& journal = round.journal;
  std::vector<const Record*> queries;
  for (const ClientLog& log : round.logs) {
    if (!log.error.empty()) {
      tally.record(false, "client connection failed: " + log.error);
    }
    for (const Record& rec : log.records) {
      if (rec.request.type != protocol_type::kApplyDelta) {
        queries.push_back(&rec);
        continue;
      }
      bool ok = rec.reply.type == protocol_type::kDeltaApplied;
      if (ok) {
        const protocol::DeltaAppliedReply reply =
            protocol::decode_delta_applied_reply(rec.reply.payload);
        ok = reply.ops_applied == 1 && reply.journal_length > rec.lo &&
             reply.journal_length <= rec.hi &&
             reply.journal_length <= journal.size() &&
             journal[reply.journal_length - 1] == rec.request.op;
      }
      tally.record(ok, "delta refused or journaled out of place");
    }
  }
  std::stable_sort(queries.begin(), queries.end(),
                   [](const Record* a, const Record* b) { return a->lo < b->lo; });
  const std::size_t stride =
      std::max<std::size_t>(1, (queries.size() + kVerifiedQueries - 1) /
                                   kVerifiedQueries);
  std::vector<const Record*> sample;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Record& q = *queries[i];
    if (q.reply.type != reply_type_of(q.request.type)) {
      tally.record(false, kind_of(q.request.type) + " query refused");
    } else if (i % stride == 0) {
      sample.push_back(&q);
    } else {
      tally.record(true, "");
    }
  }

  demand::DemandProfile profile = baseline;
  const hex::HexGrid grid;
  demand::DeltaApplier applier(profile, grid, hex::kServiceCellResolution);
  serve::PlanTable plans;
  std::vector<const Record*> open;
  std::size_t next = 0;
  for (std::uint64_t v = 0; v <= journal.size(); ++v) {
    while (next < sample.size() && sample[next]->lo <= v) {
      open.push_back(sample[next++]);
    }
    std::map<std::string, protocol::Frame> answers;  // this version's
    std::vector<const Record*> still_open;
    for (const Record* q : open) {
      if (q->hi < v) {
        tally.record(false, kind_of(q->request.type) +
                                " reply matches no profile version it saw");
        continue;
      }
      // Resize and served payloads are both two doubles: key on the type too.
      const std::string key =
          std::to_string(static_cast<int>(q->request.type)) + ':' +
          payload_of(q->request);
      auto it = answers.find(key);
      if (it == answers.end()) {
        it = answers.emplace(key, expected_reply(q->request, profile, plans))
                 .first;
      }
      if (it->second.type == q->reply.type &&
          it->second.payload == q->reply.payload) {
        tally.record(true, "");
      } else {
        still_open.push_back(q);
      }
    }
    open.swap(still_open);
    if (v == journal.size()) break;
    const demand::DeltaOp& op = journal[v];
    if (op.kind == demand::DeltaKind::kSetPlanPrice) {
      plans.set_price(op.plan_name, op.value);
    } else {
      (void)applier.apply(op);
    }
  }
  for (const Record* q : open) {
    tally.record(false, kind_of(q->request.type) +
                            " reply differs from the library answer");
  }
}

std::vector<ScriptGen> make_scripts(const Options& opt, std::size_t n,
                                    const demand::DemandProfile& baseline) {
  std::vector<ScriptGen> scripts;
  for (std::size_t i = 0; i < n; ++i) scripts.emplace_back(opt.seed, i, baseline);
  return scripts;
}

demand::DemandProfile make_baseline(const Options& opt) {
  demand::GeneratorConfig gen;
  gen.seed = opt.seed;
  gen.scale = opt.scale;
  return demand::SyntheticGenerator{gen}.generate_profile();
}

}  // namespace

void serve_run(const Options& opt, Tally& tally, Metrics& out) {
  const std::size_t n = connections(opt);
  std::vector<double> setup_s;
  demand::DemandProfile baseline;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    baseline = make_baseline(opt);
    const Service service(baseline, n);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  const std::vector<ScriptGen> scripts = make_scripts(opt, n, baseline);
  // Latency metrics are medians over rounds of each round's value, so a
  // burst of host noise that slows a few rounds moves none of them.
  std::vector<double> pass_ms;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> per_s;
  double measured_ms = 0.0;
  while (measured_ms < opt.seconds * 1000.0) {
    const Round round = run_round(baseline, scripts, /*traced=*/false);
    std::vector<double> request_us;
    for (const ClientLog& log : round.logs) {
      for (const Record& rec : log.records) request_us.push_back(rec.us);
    }
    pass_ms.push_back(round.ms);
    per_s.push_back(static_cast<double>(request_us.size()) * 1000.0 /
                    round.ms);
    p50_us.push_back(quantile(request_us, 0.50));
    p99_us.push_back(quantile(std::move(request_us), 0.99));
    measured_ms += round.ms;
    verify(baseline, round, tally);
  }
  set_end_to_end(out, setup_s, pass_ms);
  out.set("req_p50_us", median(p50_us), "us");
  out.set("req_p99_us", median(p99_us), "us");
  out.set("req_per_s", median(per_s), "1/s");
}

namespace {

/// Calls the engine for one request as ServiceState::handle does, timing
/// only the engine call into `us`, and encodes its answer as the reply
/// frame handle sends. `journal_length` is the journal after a delta.
protocol::Frame engine_reply(serve::IncrementalEngine& engine,
                             serve::PlanTable& plans, const Request& r,
                             std::uint64_t journal_length, double& us) {
  const Clock::time_point t0 = Clock::now();
  const auto stop = [&us, t0] { us = ms_between(t0, Clock::now()) * 1000.0; };
  if (r.type == protocol_type::kApplyDelta) {
    protocol::DeltaAppliedReply reply;
    if (r.op.kind == demand::DeltaKind::kSetPlanPrice) {
      plans.set_price(r.op.plan_name, r.op.value);
      stop();
    } else {
      const bool changed = engine.apply(r.op).effect.cells_changed;
      stop();
      reply.cells_touched = changed ? 1 : 0;
      reply.dirty_regions = changed ? 1 : 0;
    }
    reply.ops_applied = 1;
    reply.journal_length = journal_length;
    return {protocol_type::kDeltaApplied, protocol::encode(reply)};
  }
  if (r.type == protocol_type::kQueryResize) {
    const serve::ResizeAnswer a = engine.query_resize(r.a, r.b);
    stop();
    return resize_frame(a.full, a.capped);
  }
  if (r.type == protocol_type::kQueryServedFraction) {
    const serve::ServedFractionAnswer a =
        engine.query_served_fraction(r.a, r.b);
    stop();
    return {protocol_type::kServedFractionResult,
            protocol::encode(protocol::ServedFractionReply{
                a.cell_fraction, a.location_fraction, a.served_cells,
                a.total_cells, a.served_locations, a.total_locations})};
  }
  const afford::PlanAffordability a =
      engine.query_affordability(plans.find(r.plan), threshold_of(r));
  stop();
  return afford_frame(a);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return kNotMeasured;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Client-side view of one verified round: the mean request latency and
/// the share of the clients' round time that no timed call covers.
struct RoundStats {
  double mean_us = 0.0;
  double untimed_frac = 0.0;
};

/// Runs and verifies one round; `share` (optional) receives each request
/// kind's share of the round.
RoundStats round_stats(const demand::DemandProfile& baseline,
                       const std::vector<ScriptGen>& scripts, bool traced,
                       Tally& tally, std::map<std::string, double>* share) {
  const Round round = run_round(baseline, scripts, traced);
  std::vector<double> request_us;
  for (const ClientLog& log : round.logs) {
    for (const Record& rec : log.records) {
      request_us.push_back(rec.us);
      if (share != nullptr) (*share)[kind_of(rec.request.type)] += 1.0;
    }
  }
  if (share != nullptr) {
    for (auto& [kind, c] : *share) {
      c /= static_cast<double>(request_us.size());
    }
  }
  verify(baseline, round, tally);
  RoundStats stats;
  stats.mean_us = mean(request_us);
  const double client_ms = static_cast<double>(round.logs.size()) * round.ms;
  stats.untimed_frac =
      1.0 - stats.mean_us * static_cast<double>(request_us.size()) /
                (1000.0 * client_ms);
  return stats;
}

}  // namespace

void serve_traced(const Options& opt, double budget_s, Tally& tally,
                  Metrics& out) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  const demand::DemandProfile baseline = make_baseline(opt);
  Samples samples;

  // One round's requests, the clients' scripts interleaved, timed directly
  // against the engine and against ServiceState::handle.
  const std::vector<ScriptGen> round_scripts =
      make_scripts(opt, connections(opt), baseline);
  std::vector<ScriptGen> scripts = round_scripts;
  std::vector<Request> requests;
  for (std::size_t i = 0; i < kRoundRequests; ++i) {
    for (ScriptGen& script : scripts) requests.push_back(script.next());
  }
  // The two replays run in lockstep so both see the same cache conditions.
  // The handle replay sends one request at a time, so every reply's profile
  // version is exact; it is verified like a round, and every engine answer
  // must equal its handle reply byte for byte.
  std::map<std::string, std::vector<double>> engine_us;
  std::map<std::string, std::vector<double>> handle_us;
  serve::EngineStats stats;
  {
    serve::IncrementalEngine engine(baseline, serve::EngineConfig{});
    serve::PlanTable plans;
    serve::ServiceState state(baseline, serve::ServiceConfig{});
    Round replay;
    replay.logs.resize(1);
    std::uint64_t version = 0;
    for (const Request& r : requests) {
      const std::string kind = kind_of(r.type);
      const bool delta = r.type == protocol_type::kApplyDelta;
      double us = 0.0;
      const protocol::Frame answer =
          engine_reply(engine, plans, r, version + (delta ? 1 : 0), us);
      engine_us[kind].push_back(us);

      Record rec{r, {}, version, version, 0.0};
      const protocol::Frame request{r.type, payload_of(r)};
      const Clock::time_point t0 = Clock::now();
      rec.reply = state.handle(request);
      handle_us[kind].push_back(ms_between(t0, Clock::now()) * 1000.0);
      tally.record(answer.type == rec.reply.type &&
                       answer.payload == rec.reply.payload,
                   kind + " engine answer differs from the handle reply");
      if (delta) rec.hi = ++version;
      replay.logs[0].records.push_back(std::move(rec));
    }
    replay.journal = state.journal_copy();
    stats = state.engine_stats();
    verify(baseline, replay, tally);
  }
  for (const auto& [kind, v] : engine_us) {
    samples["serve.engine_us." + kind].push_back(mean(v));
  }
  for (const auto& [kind, v] : handle_us) {
    samples["serve.handle_us." + kind].push_back(mean(v));
  }
  samples["serve.partial_hit_ratio"].push_back(
      static_cast<double>(stats.partial_hits) /
      static_cast<double>(stats.partial_hits + stats.partial_misses));
  samples["serve.region_recomputes"].push_back(
      static_cast<double>(stats.region_recomputes));

  // Untraced and traced rounds alternate for the rest of the budget:
  // transport time comes from the untraced ones, overhead and the untimed
  // share from the traced ones.
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  std::map<std::string, double> share;
  while (traced_us.empty() || Clock::now() < deadline) {
    share.clear();
    untraced_us.push_back(
        round_stats(baseline, round_scripts, false, tally, &share).mean_us);
    const RoundStats traced =
        round_stats(baseline, round_scripts, true, tally, nullptr);
    traced_us.push_back(traced.mean_us);
    samples["pass.untimed_frac"].push_back(traced.untimed_frac);
  }
  double handle_mix_us = 0.0;
  for (const auto& [kind, s] : share) handle_mix_us += s * mean(handle_us[kind]);
  samples["serve.transport_us"].push_back(median(untraced_us) - handle_mix_us);
  samples["trace_overhead_frac"].push_back(median(traced_us) /
                                               median(untraced_us) -
                                           1.0);
  emit_medians("serve_mix.", samples, out);
}

}  // namespace perfbench
