#include "leodivide/serve/session.hpp"

#include <exception>
#include <set>
#include <utility>

#include "leodivide/obs/metrics.hpp"

namespace leodivide::serve {

PlanTable::PlanTable() : plans_(afford::paper_plans()) {}

void PlanTable::set_price(const std::string& name, double monthly_usd) {
  if (name.empty()) {
    throw std::invalid_argument("plan table: empty plan name");
  }
  if (monthly_usd < 0.0) {
    throw std::invalid_argument("plan table: negative price for plan '" +
                                name + "'");
  }
  for (afford::ServicePlan& plan : plans_) {
    if (plan.name == name) {
      plan.monthly_usd = monthly_usd;
      return;
    }
  }
  plans_.push_back(afford::ServicePlan{
      name, monthly_usd,
      {demand::kReliableDownMbps, demand::kReliableUpMbps}});
}

const afford::ServicePlan& PlanTable::find(const std::string& name) const {
  for (const afford::ServicePlan& plan : plans_) {
    if (plan.name == name) return plan;
  }
  throw std::invalid_argument("plan table: unknown plan '" + name + "'");
}

ServiceState::ServiceState(demand::DemandProfile baseline,
                           ServiceConfig config)
    : config_(std::move(config)),
      engine_(std::move(baseline), config_.engine) {}

protocol::Frame ServiceState::handle(const protocol::Frame& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++requests_;
  obs::registry().counter("serve.requests").add();
  obs::ScopedLatency latency(obs::registry().histogram(
      "serve.latency." + std::string(to_string(request.type))));
  try {
    return dispatch(request);
  } catch (const std::exception& e) {
    // Request-level failure: the session survives, the client hears why.
    return protocol::Frame{protocol::MsgType::kError,
                           encode(protocol::ErrorReply{e.what()})};
  }
}

protocol::Frame ServiceState::dispatch(const protocol::Frame& request) {
  using protocol::Frame;
  using protocol::MsgType;
  switch (request.type) {
    case MsgType::kHello: {
      (void)protocol::decode_hello_request(request.payload);
      protocol::HelloReply reply;
      reply.server = kServerName;
      reply.cells = engine_.profile().cell_count();
      reply.counties = engine_.profile().counties().size();
      reply.regions = engine_.region_count();
      reply.paranoid = config_.engine.paranoid;
      return Frame{MsgType::kHelloReply, encode(reply)};
    }
    case MsgType::kApplyDelta: {
      const protocol::ApplyDeltaRequest req =
          protocol::decode_apply_delta_request(request.payload);
      protocol::DeltaAppliedReply reply;
      std::set<std::size_t> dirty;
      for (std::size_t i = 0; i < req.ops.size(); ++i) {
        const demand::DeltaOp& op = req.ops[i];
        try {
          if (op.kind == demand::DeltaKind::kSetPlanPrice) {
            plans_.set_price(op.plan_name, op.value);
          } else {
            const ApplyOutcome outcome = engine_.apply(op);
            if (outcome.effect.cells_changed) {
              dirty.insert(outcome.region);
              ++reply.cells_touched;
            }
          }
        } catch (const std::exception& e) {
          // Prior ops stay applied (and journaled); the client hears
          // exactly how far the batch got.
          throw std::invalid_argument(
              "apply_delta op " + std::to_string(i) + " (" +
              std::string(to_string(op.kind)) + "): " + e.what() + "; " +
              std::to_string(reply.ops_applied) + " op(s) applied");
        }
        journal_.push_back(op);
        ++reply.ops_applied;
      }
      reply.dirty_regions = dirty.size();
      reply.journal_length = journal_.size();
      return Frame{MsgType::kDeltaApplied, encode(reply)};
    }
    case MsgType::kQueryResize: {
      const protocol::QueryResizeRequest req =
          protocol::decode_query_resize_request(request.payload);
      const ResizeAnswer answer =
          engine_.query_resize(req.beamspread, req.oversub_cap);
      protocol::ResizeReply reply;
      reply.full_satellites = answer.full.satellites;
      reply.full_binding_lat_deg = answer.full.binding_lat_deg;
      reply.full_beams = answer.full.beams_on_binding;
      reply.full_cell_index = answer.full.binding_cell_index;
      reply.capped_satellites = answer.capped.satellites;
      reply.capped_binding_lat_deg = answer.capped.binding_lat_deg;
      reply.capped_beams = answer.capped.beams_on_binding;
      reply.capped_cell_index = answer.capped.binding_cell_index;
      return Frame{MsgType::kResizeResult, encode(reply)};
    }
    case MsgType::kQueryAffordability: {
      const protocol::QueryAffordabilityRequest req =
          protocol::decode_query_affordability_request(request.payload);
      const double threshold =
          req.threshold > 0.0 ? req.threshold : afford::kAffordabilityThreshold;
      const afford::ServicePlan& plan = plans_.find(req.plan_name);
      const afford::PlanAffordability answer =
          engine_.query_affordability(plan, threshold);
      protocol::AffordabilityReply reply;
      reply.plan_name = answer.plan.name;
      reply.monthly_usd = answer.plan.monthly_usd;
      reply.income_required_usd = answer.income_required_usd;
      reply.locations_unable = answer.locations_unable;
      reply.fraction_unable = answer.fraction_unable;
      return Frame{MsgType::kAffordabilityResult, encode(reply)};
    }
    case MsgType::kQueryServedFraction: {
      const protocol::QueryServedFractionRequest req =
          protocol::decode_query_served_fraction_request(request.payload);
      const ServedFractionAnswer answer =
          engine_.query_served_fraction(req.beamspread, req.oversub);
      protocol::ServedFractionReply reply;
      reply.cell_fraction = answer.cell_fraction;
      reply.location_fraction = answer.location_fraction;
      reply.served_cells = answer.served_cells;
      reply.total_cells = answer.total_cells;
      reply.served_locations = answer.served_locations;
      reply.total_locations = answer.total_locations;
      return Frame{MsgType::kServedFractionResult, encode(reply)};
    }
    case MsgType::kStats: {
      const EngineStats s = engine_.stats();
      protocol::StatsReply reply;
      reply.counters = {
          {"serve.cells", s.cells},
          {"serve.regions", s.regions},
          {"serve.deltas_applied", s.deltas_applied},
          {"serve.dirty_regions", s.dirty_regions},
          {"serve.region_recomputes", s.region_recomputes},
          {"serve.partial_hits", s.partial_hits},
          {"serve.partial_misses", s.partial_misses},
          {"serve.paranoid_checks", s.paranoid_checks},
          {"serve.requests", requests_},
          {"serve.journal_length", journal_.size()},
      };
      return Frame{MsgType::kStatsReply, encode(reply)};
    }
    case MsgType::kShutdown: {
      shutdown_ = true;
      shutdown_cv_.notify_all();
      return Frame{MsgType::kShutdownAck, std::string()};
    }
    default:
      return Frame{
          protocol::MsgType::kError,
          encode(protocol::ErrorReply{
              "unsupported message type " +
              std::to_string(static_cast<std::uint16_t>(request.type))})};
  }
}

void ServiceState::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_; });
}

std::vector<demand::DeltaOp> ServiceState::journal_copy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return journal_;
}

EngineStats ServiceState::engine_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.stats();
}

}  // namespace leodivide::serve
