#include "leodivide/runtime/task_graph.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>

#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"

namespace leodivide::runtime {

namespace {

/// Stable id of the dependency edge src → dst, shared by the flow-start
/// event (recorded in src's span) and the flow-end event (in dst's span).
[[nodiscard]] std::uint64_t edge_flow_id(TaskGraph::TaskId src,
                                         TaskGraph::TaskId dst) noexcept {
  return (static_cast<std::uint64_t>(src) << 32) |
         static_cast<std::uint64_t>(dst);
}

}  // namespace

TaskGraph::TaskId TaskGraph::add_task(const char* name,
                                      std::function<void()> fn,
                                      const std::vector<TaskId>& deps) {
  const TaskId id = nodes_.size();
  for (const TaskId dep : deps) {
    if (dep >= id) {
      throw std::invalid_argument(
          "TaskGraph::add_task: dependency does not name an already-added "
          "node");
    }
  }
  Node node;
  node.name = name;
  node.fn = std::move(fn);
  node.deps = deps;
  nodes_.push_back(std::move(node));
  for (const TaskId dep : deps) nodes_[dep].succs.push_back(id);
  return id;
}

void TaskGraph::run(Executor& ex) {
  if (nodes_.empty()) return;
  const bool observed = obs::observability_enabled();
  for (Node& node : nodes_) {
    node.pending = node.deps.size();
    node.parent_failed = false;
    node.ready_ns = 0;
  }

  std::mutex m;
  std::condition_variable work;
  // Lowest-id-first dispatch: deterministic on a serial executor, and a
  // stable priority (insertion ≈ topological order) on pools.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<TaskId>>
      ready;
  std::size_t remaining = nodes_.size();
  std::exception_ptr first_error;
  TaskId first_error_id = 0;

  const auto mark_ready = [&](TaskId id) {
    if (observed) [[unlikely]] nodes_[id].ready_ns = obs::now_ns();
    ready.push(id);
  };
  for (TaskId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].pending == 0) mark_ready(id);
  }

  // Called with the run mutex held once node `id` has finished (or been
  // skipped): propagates readiness / skip cascades to its successors.
  const auto settle_successors = [&](TaskId id, bool failed) {
    std::vector<TaskId> skip_stack;
    const auto complete_edge = [&](TaskId succ, bool parent_failed,
                                   std::vector<TaskId>& stack) {
      Node& s = nodes_[succ];
      if (parent_failed) s.parent_failed = true;
      if (--s.pending != 0) return;
      if (s.parent_failed) {
        stack.push_back(succ);
      } else {
        mark_ready(succ);
      }
    };
    for (const TaskId succ : nodes_[id].succs) {
      complete_edge(succ, failed, skip_stack);
    }
    while (!skip_stack.empty()) {
      const TaskId sid = skip_stack.back();
      skip_stack.pop_back();
      --remaining;
      for (const TaskId succ : nodes_[sid].succs) {
        complete_edge(succ, /*parent_failed=*/true, skip_stack);
      }
    }
  };

  const auto run_node = [&](TaskId id) -> std::exception_ptr {
    Node& node = nodes_[id];
    if (observed) [[unlikely]] {
      if (obs::metrics_enabled() && node.ready_ns != 0) {
        const std::uint64_t now = obs::now_ns();
        obs::registry()
            .histogram(std::string("graph.queue_wait_us.") + node.name)
            .record_always_us(
                now > node.ready_ns ? (now - node.ready_ns) / 1000 : 0);
      }
      obs::Span span(node.name);
      for (const TaskId dep : node.deps) {
        obs::record_flow_end("graph.edge", edge_flow_id(dep, id));
      }
      std::exception_ptr err;
      try {
        node.fn();
      } catch (...) {
        err = std::current_exception();
      }
      for (const TaskId succ : node.succs) {
        obs::record_flow_start("graph.edge", edge_flow_id(id, succ));
      }
      return err;
    }
    try {
      node.fn();
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  };

  const auto pump = [&](std::size_t /*pump_index*/) {
    for (;;) {
      TaskId id = 0;
      {
        std::unique_lock<std::mutex> lk(m);
        work.wait(lk, [&] { return remaining == 0 || !ready.empty(); });
        if (ready.empty()) return;  // remaining == 0: graph quiesced
        id = ready.top();
        ready.pop();
      }
      const std::exception_ptr err = run_node(id);
      {
        std::lock_guard<std::mutex> lk(m);
        if (err && (!first_error || id < first_error_id)) {
          first_error = err;
          first_error_id = id;
        }
        --remaining;
        settle_successors(id, err != nullptr);
      }
      work.notify_all();
    }
  };

  const std::size_t pumps = std::min(ex.concurrency(), nodes_.size());
  ex.run_tasks(pumps, pump);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace leodivide::runtime
