// serve/ subsystem tests: incremental-engine golden equivalence against
// the plain library on mutated profiles, paranoid mode, the session
// dispatcher's reply/error contract, the loopback server/client end-to-end
// path, and the concurrent-session test CI runs under TSan.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/serve/client.hpp"
#include "leodivide/serve/incremental.hpp"
#include "leodivide/serve/server.hpp"
#include "leodivide/serve/session.hpp"

namespace {

using namespace leodivide;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

demand::DemandProfile small_profile() {
  return demand::SyntheticGenerator({.seed = 7, .scale = 0.02})
      .generate_profile();
}

// The mutation sequence every equivalence test replays: adds into existing
// and brand-new cells, removals, subsidy upgrades and an income revision.
std::vector<demand::DeltaOp> scripted_ops(const demand::DemandProfile& base) {
  std::vector<demand::DeltaOp> ops;
  demand::DeltaOp add;
  add.kind = demand::DeltaKind::kAddLocations;
  add.position = base.cells()[3].center;
  add.count = 400;
  ops.push_back(add);

  demand::DeltaOp fresh;  // a position no baseline cell covers
  fresh.kind = demand::DeltaKind::kAddLocations;
  fresh.position = {47.9, -69.2};
  fresh.count = 55;
  fresh.county_index = 2;
  ops.push_back(fresh);

  demand::DeltaOp remove;
  remove.kind = demand::DeltaKind::kRemoveLocations;
  remove.position = base.cells()[3].center;
  remove.count = 150;
  ops.push_back(remove);

  demand::DeltaOp upgrade;
  upgrade.kind = demand::DeltaKind::kUpgradeLocations;
  upgrade.position = base.cells()[base.cell_count() / 2].center;
  upgrade.count = 1;
  ops.push_back(upgrade);

  demand::DeltaOp income;
  income.kind = demand::DeltaKind::kSetCountyIncome;
  income.county_index = 1;
  income.value = 23456.0;
  ops.push_back(income);
  return ops;
}

// Asserts every engine answer equals the plain library computation on
// `reference` at the bit level, across several query parameter points.
void expect_engine_matches_library(serve::IncrementalEngine& engine,
                                   const demand::DemandProfile& reference) {
  const core::SizingModel model{};
  runtime::Executor& executor = runtime::serial_executor();
  const double points[][2] = {{10.0, 20.0}, {4.0, 20.0}, {10.0, 5.0}};
  for (const auto& p : points) {
    const serve::ResizeAnswer got = engine.query_resize(p[0], p[1]);
    const core::SizingResult full =
        core::size_full_service(reference, model, p[0]);
    const core::SizingResult capped =
        core::size_with_cap(reference, model, p[0], p[1], executor);
    EXPECT_TRUE(same_bits(got.full.satellites, full.satellites));
    EXPECT_TRUE(same_bits(got.full.binding_lat_deg, full.binding_lat_deg));
    EXPECT_EQ(got.full.beams_on_binding, full.beams_on_binding);
    EXPECT_EQ(got.full.binding_cell_index, full.binding_cell_index);
    EXPECT_TRUE(same_bits(got.capped.satellites, capped.satellites));
    EXPECT_TRUE(same_bits(got.capped.binding_lat_deg, capped.binding_lat_deg));
    EXPECT_EQ(got.capped.beams_on_binding, capped.beams_on_binding);
    EXPECT_EQ(got.capped.binding_cell_index, capped.binding_cell_index);

    const serve::ServedFractionAnswer served =
        engine.query_served_fraction(p[0], p[1]);
    EXPECT_TRUE(same_bits(
        served.cell_fraction,
        core::served_cell_fraction(reference, model.capacity, p[0], p[1])));
    EXPECT_TRUE(same_bits(served.location_fraction,
                          core::served_location_fraction(
                              reference, model.capacity, p[0], p[1])));
    EXPECT_EQ(served.total_locations, reference.total_locations());
  }
  const afford::ServicePlan plan = afford::starlink_residential();
  EXPECT_EQ(engine.query_affordability(plan, afford::kAffordabilityThreshold),
            afford::AffordabilityAnalyzer(reference).evaluate(
                plan, afford::kAffordabilityThreshold));
}

// ----------------------------------------------------- incremental engine --

TEST(ServeIncremental, BaselineAnswersMatchLibrary) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  EXPECT_GT(engine.region_count(), 1U);
  expect_engine_matches_library(engine, base);
}

TEST(ServeIncremental, GoldenEquivalenceThroughDeltaSequence) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  (void)engine.query_resize(10.0, 20.0);  // warm the partials

  demand::DemandProfile reference = base;
  const hex::HexGrid grid;
  demand::DeltaApplier applier(reference, grid, hex::kServiceCellResolution);
  for (const demand::DeltaOp& op : scripted_ops(base)) {
    const serve::ApplyOutcome outcome = engine.apply(op);
    (void)applier.apply(op);
    if (op.kind != demand::DeltaKind::kSetCountyIncome) {
      EXPECT_TRUE(outcome.effect.cells_changed);
    }
    expect_engine_matches_library(engine, reference);
  }
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deltas_applied, scripted_ops(base).size());
  // Region partials live in memory only, so every partial miss is a
  // recompute, and the affordability queries above count toward neither.
  EXPECT_EQ(stats.region_recomputes, stats.partial_misses);
  EXPECT_GT(stats.partial_hits, 0U);
  // A single-cell delta must not invalidate the other regions: far fewer
  // recomputes than (rounds x regions) full recomputation would take.
  EXPECT_LT(stats.region_recomputes,
            stats.partial_hits + stats.region_recomputes);
}

// A query folds every region once per memo it reads: resize reads the
// peak and the sizing memo, a served-fraction query its served memo.
TEST(ServeIncremental, SingleCellDeltaRefoldsOnlyItsRegion) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  const std::uint64_t regions = engine.region_count();
  const serve::ResizeAnswer before = engine.query_resize(10.0, 20.0);
  const serve::EngineStats warm = engine.stats();
  EXPECT_EQ(warm.region_recomputes, 2 * regions);
  EXPECT_EQ(warm.partial_hits, 0U);

  // Pile locations onto the lowest-latitude cell, so that it becomes both
  // the peak and the binding cell: had its region's partials stayed live,
  // neither answer could name it.
  std::size_t target = 0;
  for (std::size_t i = 1; i < base.cell_count(); ++i) {
    if (base.cells()[i].center.lat_deg < base.cells()[target].center.lat_deg) {
      target = i;
    }
  }
  demand::DeltaOp op;
  op.kind = demand::DeltaKind::kAddLocations;
  op.position = base.cells()[target].center;
  op.count = 100000;
  const serve::ApplyOutcome outcome = engine.apply(op);
  ASSERT_TRUE(outcome.effect.cells_changed);
  ASSERT_EQ(outcome.effect.cell_index, target);

  const serve::ResizeAnswer after = engine.query_resize(10.0, 20.0);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.region_recomputes - warm.region_recomputes, 2U);
  EXPECT_EQ(stats.partial_misses - warm.partial_misses, 2U);
  EXPECT_EQ(stats.partial_hits - warm.partial_hits, 2 * (regions - 1));
  EXPECT_EQ(after.full.binding_cell_index, target);
  EXPECT_EQ(after.capped.binding_cell_index, target);
  EXPECT_NE(before, after);
  expect_engine_matches_library(engine, engine.profile());
}

TEST(ServeIncremental, IncomeDeltaRefoldsNoRegion) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  const afford::ServicePlan plan = afford::starlink_residential();
  const double threshold = afford::kAffordabilityThreshold;
  (void)engine.query_resize(10.0, 20.0);
  (void)engine.query_served_fraction(10.0, 20.0);
  const afford::PlanAffordability before =
      engine.query_affordability(plan, threshold);
  const serve::EngineStats warm = engine.stats();

  // Move the county with the most locations across the plan's required
  // income, so the answer has to change.
  std::uint32_t county = 0;
  const auto& counties = base.counties().all();
  for (std::uint32_t k = 1; k < counties.size(); ++k) {
    if (counties[k].underserved_locations >
        counties[county].underserved_locations) {
      county = k;
    }
  }
  ASSERT_GT(counties[county].underserved_locations, 0U);
  demand::DeltaOp op;
  op.kind = demand::DeltaKind::kSetCountyIncome;
  op.county_index = county;
  op.value = counties[county].median_income_usd < before.income_required_usd
                 ? 10.0 * before.income_required_usd
                 : 1.0;
  const serve::ApplyOutcome outcome = engine.apply(op);
  EXPECT_FALSE(outcome.effect.cells_changed);
  EXPECT_TRUE(outcome.effect.counties_changed);

  const afford::PlanAffordability after =
      engine.query_affordability(plan, threshold);
  EXPECT_NE(before.locations_unable, after.locations_unable);
  EXPECT_EQ(after,
            afford::AffordabilityAnalyzer(engine.profile()).evaluate(
                plan, threshold));
  (void)engine.query_resize(10.0, 20.0);
  (void)engine.query_served_fraction(10.0, 20.0);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.region_recomputes, warm.region_recomputes);
  EXPECT_EQ(stats.partial_hits - warm.partial_hits,
            3 * static_cast<std::uint64_t>(engine.region_count()));
  EXPECT_EQ(stats.dirty_regions, warm.dirty_regions);
}

TEST(ServeIncremental, RejectedOpRefoldsNoRegion) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  (void)engine.query_resize(10.0, 20.0);
  (void)engine.query_served_fraction(10.0, 20.0);
  const serve::EngineStats warm = engine.stats();

  demand::DeltaOp bad;
  bad.kind = demand::DeltaKind::kRemoveLocations;
  bad.position = base.cells()[0].center;
  bad.count = 0xFFFFFFFF;  // more than any cell holds
  EXPECT_THROW((void)engine.apply(bad), std::invalid_argument);
  demand::DeltaOp income;
  income.kind = demand::DeltaKind::kSetCountyIncome;
  income.value = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)engine.apply(income), std::invalid_argument);

  (void)engine.query_resize(10.0, 20.0);
  (void)engine.query_served_fraction(10.0, 20.0);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.region_recomputes, warm.region_recomputes);
  EXPECT_EQ(stats.dirty_regions, warm.dirty_regions);
  EXPECT_EQ(stats.deltas_applied, 0U);
}

// A position whose service cell is NOT in `profile` (scans candidates, so
// the test never depends on what the 2% sample happened to include).
geo::GeoPoint vacant_position(const demand::DemandProfile& profile) {
  const hex::HexGrid grid;
  for (double lat = 26.0; lat < 48.0; lat += 1.3) {
    for (double lon = -120.0; lon < -70.0; lon += 1.7) {
      const std::uint64_t bits =
          grid.cell_of({lat, lon}, hex::kServiceCellResolution).bits();
      bool taken = false;
      for (const auto& cell : profile.cells()) {
        if (cell.cell.bits() == bits) {
          taken = true;
          break;
        }
      }
      if (!taken) return {lat, lon};
    }
  }
  throw std::runtime_error("no vacant cell found");
}

TEST(ServeIncremental, AddIntoBrandNewRegionGrowsTheEngine) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  const std::size_t regions_before = engine.region_count();
  const std::size_t cells_before = engine.profile().cell_count();

  demand::DeltaOp op;
  op.kind = demand::DeltaKind::kAddLocations;
  op.position = vacant_position(base);
  op.count = 10;
  op.county_index = 0;
  const serve::ApplyOutcome outcome = engine.apply(op);
  EXPECT_TRUE(outcome.effect.cell_added);
  EXPECT_EQ(engine.profile().cell_count(), cells_before + 1);
  if (outcome.region_added) {
    EXPECT_EQ(engine.region_count(), regions_before + 1);
  }
  demand::DemandProfile reference = engine.profile();
  expect_engine_matches_library(engine, reference);
}

TEST(ServeIncremental, InvalidOpLeavesAnswersUnchanged) {
  const demand::DemandProfile base = small_profile();
  serve::IncrementalEngine engine(base, serve::EngineConfig{});
  const serve::ResizeAnswer before = engine.query_resize(10.0, 20.0);

  demand::DeltaOp bad;
  bad.kind = demand::DeltaKind::kRemoveLocations;
  bad.position = base.cells()[0].center;
  bad.count = 0xFFFFFFFF;  // more than any cell holds
  EXPECT_THROW((void)engine.apply(bad), std::invalid_argument);

  demand::DeltaOp price;
  price.kind = demand::DeltaKind::kSetPlanPrice;
  price.plan_name = "X";
  price.value = 1.0;
  EXPECT_THROW((void)engine.apply(price), std::invalid_argument);

  const serve::ResizeAnswer after = engine.query_resize(10.0, 20.0);
  EXPECT_EQ(before, after);
}

TEST(ServeIncremental, EmptyProfileConventions) {
  serve::IncrementalEngine engine(demand::DemandProfile{},
                                  serve::EngineConfig{});
  EXPECT_THROW((void)engine.query_resize(10.0, 20.0), std::invalid_argument);
  const serve::ServedFractionAnswer served =
      engine.query_served_fraction(10.0, 20.0);
  EXPECT_TRUE(same_bits(served.cell_fraction, 1.0));
  EXPECT_TRUE(same_bits(served.location_fraction, 1.0));
  EXPECT_EQ(served.total_cells, 0U);
}

TEST(ServeIncremental, ParanoidModeAcceptsCorrectAnswers) {
  const demand::DemandProfile base = small_profile();
  serve::EngineConfig config;
  config.paranoid = true;
  serve::IncrementalEngine engine(base, config);
  for (const demand::DeltaOp& op : scripted_ops(base)) {
    (void)engine.apply(op);
    EXPECT_NO_THROW((void)engine.query_resize(10.0, 20.0));
    EXPECT_NO_THROW((void)engine.query_served_fraction(10.0, 20.0));
    EXPECT_NO_THROW((void)engine.query_affordability(
        afford::starlink_residential(), afford::kAffordabilityThreshold));
  }
  EXPECT_GT(engine.stats().paranoid_checks, 0U);
}

// -------------------------------------------------------------- session --

serve::ServiceState make_state(bool paranoid = false) {
  serve::ServiceConfig config;
  config.engine.paranoid = paranoid;
  return serve::ServiceState(small_profile(), config);
}

TEST(ServeSession, HelloDescribesTheBaseline) {
  serve::ServiceState state = make_state();
  const serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kHello,
       encode(serve::protocol::HelloRequest{"test"})});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kHelloReply);
  const serve::protocol::HelloReply hello =
      serve::protocol::decode_hello_reply(reply.payload);
  EXPECT_EQ(hello.cells, small_profile().cell_count());
  EXPECT_EQ(hello.protocol_version, serve::protocol::kProtocolVersion);
  EXPECT_FALSE(hello.paranoid);
}

TEST(ServeSession, ApplyDeltaReportsDirtyRegionsAndJournals) {
  serve::ServiceState state = make_state();
  serve::protocol::ApplyDeltaRequest req;
  req.ops = scripted_ops(small_profile());
  demand::DeltaOp price;
  price.kind = demand::DeltaKind::kSetPlanPrice;
  price.plan_name = "Starlink Residential";
  price.value = 99.0;
  req.ops.push_back(price);

  const serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kApplyDelta, encode(req)});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kDeltaApplied);
  const serve::protocol::DeltaAppliedReply applied =
      serve::protocol::decode_delta_applied_reply(reply.payload);
  EXPECT_EQ(applied.ops_applied, req.ops.size());
  EXPECT_GT(applied.dirty_regions, 0U);
  EXPECT_EQ(applied.journal_length, req.ops.size());
  EXPECT_EQ(state.journal_copy(), req.ops);
}

TEST(ServeSession, MidBatchFailureReportsProgressAndKeepsPriorOps) {
  serve::ServiceState state = make_state();
  serve::protocol::ApplyDeltaRequest req;
  demand::DeltaOp ok;
  ok.kind = demand::DeltaKind::kAddLocations;
  ok.position = small_profile().cells()[0].center;
  ok.count = 5;
  demand::DeltaOp bad;
  bad.kind = demand::DeltaKind::kSetCountyIncome;
  bad.county_index = 0;
  bad.value = -1.0;  // invalid: income must be positive
  req.ops = {ok, bad, ok};

  const serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kApplyDelta, encode(req)});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kError);
  const std::string message =
      serve::protocol::decode_error_reply(reply.payload).message;
  EXPECT_NE(message.find("op 1"), std::string::npos);
  EXPECT_NE(message.find("1 op(s) applied"), std::string::npos);
  EXPECT_EQ(state.journal_copy(), std::vector<demand::DeltaOp>{ok});
}

TEST(ServeSession, RequestLevelErrorsAnswerWithoutKillingTheSession) {
  serve::ServiceState state = make_state();
  // Unknown plan.
  serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kQueryAffordability,
       encode(serve::protocol::QueryAffordabilityRequest{"no-such-plan",
                                                         0.0})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  EXPECT_NE(serve::protocol::decode_error_reply(reply.payload)
                .message.find("unknown plan"),
            std::string::npos);
  // Malformed payload.
  reply = state.handle({serve::protocol::MsgType::kQueryResize, "xy"});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  // Unknown message type.
  reply = state.handle({static_cast<serve::protocol::MsgType>(77), ""});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  // The session still answers real queries afterwards.
  reply = state.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, 20.0})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kServedFractionResult);
}

TEST(ServeSession, NonFiniteParametersGetErrorFramesAndTheSessionGoesOn) {
  serve::ServiceState state = make_state(/*paranoid=*/true);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  serve::protocol::Frame reply = state.handle(
      {serve::protocol::MsgType::kQueryResize,
       encode(serve::protocol::QueryResizeRequest{nan, 20.0})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  reply = state.handle(
      {serve::protocol::MsgType::kQueryResize,
       encode(serve::protocol::QueryResizeRequest{10.0, nan})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  reply = state.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, nan})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  // The session still answers, and the answers match the library.
  const core::SizingModel model{};
  reply = state.handle(
      {serve::protocol::MsgType::kQueryResize,
       encode(serve::protocol::QueryResizeRequest{10.0, 20.0})});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kResizeResult);
  EXPECT_TRUE(same_bits(
      serve::protocol::decode_resize_reply(reply.payload).capped_satellites,
      core::size_with_cap(small_profile(), model, 10.0, 20.0).satellites));
  reply = state.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, 20.0})});
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kServedFractionResult);
}

TEST(ServeIncremental, NonFiniteResizeIsRejectedBeforeAnyPartial) {
  serve::IncrementalEngine engine(small_profile(), serve::EngineConfig{});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)engine.query_resize(nan, 20.0), std::invalid_argument);
  EXPECT_THROW((void)engine.query_resize(10.0, nan), std::invalid_argument);
  // Rejected before any region partial was looked up.
  EXPECT_EQ(engine.stats().partial_misses, 0U);
}

TEST(ServeSession, StatsExposesTheEngineCounters) {
  serve::ServiceState state = make_state();
  (void)state.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, 20.0})});
  const serve::protocol::Frame reply =
      state.handle({serve::protocol::MsgType::kStats, ""});
  ASSERT_EQ(reply.type, serve::protocol::MsgType::kStatsReply);
  const serve::protocol::StatsReply stats =
      serve::protocol::decode_stats_reply(reply.payload);
  bool saw_cells = false;
  for (const auto& [name, value] : stats.counters) {
    if (name == "serve.cells") {
      saw_cells = true;
      EXPECT_EQ(value, small_profile().cell_count());
    }
  }
  EXPECT_TRUE(saw_cells);
}

// --------------------------------------------------------- server/client --

TEST(ServeServer, LoopbackEndToEnd) {
  serve::ServiceState state = make_state();
  serve::ServerConfig config;
  config.workers = 2;
  serve::Server server(state, config);
  server.start();
  ASSERT_GT(server.port(), 0);

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const serve::protocol::HelloReply hello = client.hello("e2e");
  EXPECT_EQ(hello.cells, small_profile().cell_count());

  // Mutate, then check a query against a directly-driven identical state.
  demand::DeltaOp op;
  op.kind = demand::DeltaKind::kAddLocations;
  op.position = small_profile().cells()[1].center;
  op.count = 77;
  const serve::protocol::DeltaAppliedReply applied = client.apply_delta({op});
  EXPECT_EQ(applied.ops_applied, 1U);

  serve::ServiceState direct = make_state();
  (void)direct.handle(
      {serve::protocol::MsgType::kApplyDelta, encode([&] {
         serve::protocol::ApplyDeltaRequest r;
         r.ops = {op};
         return r;
       }())});
  const serve::protocol::Frame expected = direct.handle(
      {serve::protocol::MsgType::kQueryServedFraction,
       encode(serve::protocol::QueryServedFractionRequest{10.0, 20.0})});
  const serve::protocol::ServedFractionReply got =
      client.query_served_fraction(10.0, 20.0);
  EXPECT_EQ(encode(got), expected.payload);

  // Request-level failure surfaces as ServiceError, connection survives.
  EXPECT_THROW((void)client.query_affordability("no-such-plan"),
               serve::ServiceError);
  EXPECT_NO_THROW((void)client.stats());

  client.shutdown_server();
  state.wait_for_shutdown();  // returns at once: the request was handled
  server.stop();
}

TEST(ServeServer, ConcurrentSessionsStayConsistent) {
  // The TSan job runs this: several clients hammer one server from
  // separate threads; every reply must be well-formed and the journal must
  // end with exactly one op per client.
  serve::ServiceState state = make_state();
  serve::ServerConfig config;
  config.workers = 4;
  serve::Server server(state, config);
  server.start();

  constexpr std::size_t kClients = 4;
  const demand::DemandProfile base = small_profile();
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::Client client;
        client.connect("127.0.0.1", server.port());
        (void)client.hello("client-" + std::to_string(c));
        for (int q = 0; q < 10; ++q) {
          const serve::protocol::ServedFractionReply served =
              client.query_served_fraction(10.0, 20.0);
          if (served.total_cells == 0) failures[c] = 1;
          (void)client.query_resize(10.0, 20.0);
        }
        demand::DeltaOp op;
        op.kind = demand::DeltaKind::kAddLocations;
        op.position = base.cells()[c].center;
        op.count = 1;
        if (client.apply_delta({op}).ops_applied != 1) failures[c] = 1;
      } catch (const std::exception&) {
        failures[c] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_EQ(state.journal_copy().size(), kClients);
  server.stop();
}

TEST(ServeServer, UnknownMessageTypeGetsAnErrorFrame) {
  serve::ServiceState state = make_state();
  serve::Server server(state, serve::ServerConfig{});
  server.start();

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  // A well-framed message of a type the server does not know: answered
  // with kError, connection stays up for the next request.
  const serve::protocol::Frame reply = client.call(
      static_cast<serve::protocol::MsgType>(0xDEAD), "not a real payload");
  EXPECT_EQ(reply.type, serve::protocol::MsgType::kError);
  EXPECT_NO_THROW((void)client.hello("still-alive"));
  server.stop();
}

TEST(ServeServer, StopIsBoundedAgainstAClientThatNeverReads) {
  serve::ServiceState state = make_state();
  serve::Server server(state, serve::ServerConfig{});
  server.start();

  // A raw client with small socket buffers pipelines stats requests and
  // never reads a reply. Once the replies fill both buffers, the worker
  // blocks in send() and stops reading; the requests then fill the other
  // direction, and the client's non-blocking sends fail with EAGAIN.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int small = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, static_cast<sockaddr*>(static_cast<void*>(&addr)),
                      sizeof(addr)),
            0);
  std::string batch;
  for (int i = 0; i < 64; ++i) {
    batch += encode_frame(serve::protocol::MsgType::kStats, "");
  }
  std::size_t sent = 0;
  int stalled_polls = 0;
  // Full once sends have failed for 200 ms straight; 64 MiB is a backstop.
  // Each send resumes where the last one stopped, so frames stay whole.
  while (stalled_polls < 20 && sent < (std::size_t{64} << 20)) {
    const std::size_t off = sent % batch.size();
    const ssize_t n = ::send(fd, batch.data() + off, batch.size() - off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      stalled_polls = 0;
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      ++stalled_polls;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(stalled_polls, 20) << sent << " bytes sent without a stall";

  std::future<void> stopped =
      std::async(std::launch::async, [&server] { server.stop(); });
  const auto bound = serve::kStopGrace + std::chrono::seconds(10);
  if (stopped.wait_for(bound) != std::future_status::ready) {
    ADD_FAILURE() << "stop() still blocked after " << bound.count() << " ms";
    ::close(fd);  // let the worker's send fail so the test can end
    stopped.get();
    return;
  }
  stopped.get();
  ::close(fd);
}

TEST(ServeServer, StopUnblocksIdleSessions) {
  serve::ServiceState state = make_state();
  serve::Server server(state, serve::ServerConfig{});
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  (void)client.hello("idle");
  // The client sits idle in the worker's recv(); stop() must not hang.
  server.stop();
}

}  // namespace
