#pragma once
// Dependency-graph scheduler on top of the Executor batch contract. Stages
// that today run strictly sequentially (with parallel_for only inside each)
// become nodes of a DAG, so independent work — operators in market/, regions
// in serve/, scenario chains in the pipeline benches — overlaps instead of
// barriering between stages, and snapshot I/O can run behind compute (see
// snapshot/stage_graph.hpp for the cache-aware layer on top).
//
// Determinism contract (the same one parallel_for imposes): node bodies
// write only to their own outputs, so the set of nodes that runs, the
// results they produce, and the error that propagates are identical at
// every thread count. Dispatch is lowest-ready-id-first; on a serial
// executor that yields one canonical topological order — the sequential
// reference the golden tests compare pools against.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "leodivide/runtime/executor.hpp"

namespace leodivide::runtime {

/// Deterministic DAG scheduler. Nodes are added in topological order —
/// every dependency must name an already-added node, so the graph is
/// acyclic by construction and needs no cycle detection.
class TaskGraph {
 public:
  using TaskId = std::size_t;

  /// Adds a node. `name` must have static storage duration (it feeds
  /// obs::Span and the per-stage `graph.queue_wait_us.<name>` histogram).
  /// Every id in `deps` must reference an already-added node; an unknown id
  /// throws std::invalid_argument. Not thread-safe — build the graph, then
  /// run it.
  TaskId add_task(const char* name, std::function<void()> fn,
                  const std::vector<TaskId>& deps = {});

  [[nodiscard]] std::size_t task_count() const noexcept {
    return nodes_.size();
  }

  /// Runs the graph to quiescence on `ex` and blocks until done. Every node
  /// whose ancestors all succeeded runs exactly once; descendants of a
  /// failed node are skipped (a schedule-independent set). If any node
  /// threw, the exception from the *lowest-id* failing node is rethrown —
  /// the same deterministic-error rule as Executor::run_tasks. The graph is
  /// reusable: each call re-runs every node.
  ///
  /// Safe to call from inside a pool task: the executor's re-entrancy
  /// handling runs the pump batch inline, which drains the whole graph
  /// sequentially on the calling thread.
  void run(Executor& ex);

 private:
  struct Node {
    const char* name = nullptr;
    std::function<void()> fn;
    std::vector<TaskId> deps;
    std::vector<TaskId> succs;
    // Per-run state, reset by run(); mutated only under the run mutex.
    std::size_t pending = 0;
    bool parent_failed = false;
    std::uint64_t ready_ns = 0;  ///< set only while observability is on
  };

  std::vector<Node> nodes_;
};

}  // namespace leodivide::runtime
