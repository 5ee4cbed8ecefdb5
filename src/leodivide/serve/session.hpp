#pragma once
// The service's request dispatcher: one ServiceState owns the incremental
// engine, the retail plan table, the delta journal and the shutdown latch,
// and turns each decoded request frame into a reply frame. handle() runs
// under a single internal mutex — the engine's memos mutate on queries, so
// sessions serialize here and any number of connection threads stay
// data-race-free (the TSan concurrent-session test hammers exactly this).
//
// Error philosophy: a request the server cannot satisfy (unknown plan,
// invalid delta, empty profile) answers with a kError frame naming the
// problem; the connection stays up. Only transport-level malformation
// (ProtocolError in the framing layer) tears a session down.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "leodivide/afford/plan.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/serve/incremental.hpp"
#include "leodivide/serve/protocol.hpp"

namespace leodivide::serve {

/// The retail plans the affordability queries price against. Seeded with
/// the paper's four plans; kSetPlanPrice deltas reprice an existing plan or
/// add a new one (at the federal reliable-broadband speeds).
class PlanTable {
 public:
  PlanTable();

  /// Reprices `name` (creating it at 100/20 Mbps when unknown). Throws
  /// std::invalid_argument on a negative price or empty name.
  void set_price(const std::string& name, double monthly_usd);

  /// Plan by name; throws std::invalid_argument when unknown.
  [[nodiscard]] const afford::ServicePlan& find(const std::string& name) const;

  [[nodiscard]] const std::vector<afford::ServicePlan>& all() const noexcept {
    return plans_;
  }

 private:
  std::vector<afford::ServicePlan> plans_;
};

/// The server name a hello reply carries.
inline constexpr std::string_view kServerName = "leodivide-serve";

/// Service configuration. An affordability query without a positive
/// threshold uses afford::kAffordabilityThreshold.
struct ServiceConfig {
  EngineConfig engine;
};

/// Shared state behind every session. Thread-safe: handle() and the other
/// accessors lock internally.
class ServiceState {
 public:
  /// Takes ownership of the baseline profile.
  ServiceState(demand::DemandProfile baseline, ServiceConfig config);

  /// Dispatches one request frame to a reply frame. Never throws for
  /// request-level problems (those become kError replies).
  [[nodiscard]] protocol::Frame handle(const protocol::Frame& request);

  /// Blocks until a kShutdown request has been handled.
  void wait_for_shutdown();

  /// Every op applied since startup (including plan repricings), in order.
  [[nodiscard]] std::vector<demand::DeltaOp> journal_copy() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] EngineStats engine_stats() const;

 private:
  [[nodiscard]] protocol::Frame dispatch(const protocol::Frame& request);

  mutable std::mutex mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;

  ServiceConfig config_;
  IncrementalEngine engine_;
  PlanTable plans_;
  std::vector<demand::DeltaOp> journal_;
  std::uint64_t requests_ = 0;
};

}  // namespace leodivide::serve
