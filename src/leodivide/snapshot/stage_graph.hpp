#pragma once
// Cache-aware stage DAG: the task-graph runtime driven by the same
// upstream-digest edges the snapshot fingerprints have always encoded. Each
// stage is a StageDef (stages.hpp) plus its upstream stages; at run time
// the stage's fingerprint is the definition's key + the blob digests of
// its dependencies in declaration order. A stage with no upstream stages
// keys exactly as run_stage() does, so a graph and a straight-line caller
// share cache blobs, a stage restored from cache and a stage recomputed
// feed identical digests downstream, and graph-scheduled results are
// byte-identical to the sequential reference at every thread count
// (golden-tested in tests/test_task_graph.cpp).
//
// Independent stages overlap on the executor, loads of stages without
// edges are prefetched through AsyncIo at graph-build time, and stores run
// behind compute on the I/O thread; run() drains, so every artifact is on
// disk when it returns. Both the cache and the AsyncIo are optional — a null
// cache turns the graph into pure compute, a null AsyncIo makes I/O
// synchronous inside each stage node.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "leodivide/runtime/task_graph.hpp"
#include "leodivide/snapshot/async.hpp"
#include "leodivide/snapshot/cache.hpp"
#include "leodivide/snapshot/fingerprint.hpp"
#include "leodivide/snapshot/stages.hpp"

namespace leodivide::snapshot {

class StageGraph {
  /// Type-erased per-stage result metadata, shared with Stage handles.
  struct DigestSlot {
    std::uint64_t digest = 0;
    bool restored = false;
  };

  template <typename T>
  struct Slot : DigestSlot {
    std::optional<T> value;
  };

 public:
  /// Typed handle to a stage's output. Copyable; value() is valid once
  /// run() has executed (or restored) the stage.
  template <typename T>
  class Stage {
   public:
    [[nodiscard]] const T& value() const {
      if (!slot_->value.has_value()) {
        throw std::logic_error("StageGraph::Stage: value read before run()");
      }
      return *slot_->value;
    }
    [[nodiscard]] std::uint64_t digest() const noexcept {
      return slot_->digest;
    }
    [[nodiscard]] bool restored() const noexcept { return slot_->restored; }
    [[nodiscard]] runtime::TaskGraph::TaskId id() const noexcept {
      return id_;
    }

   private:
    friend class StageGraph;
    Stage(std::shared_ptr<Slot<T>> slot, runtime::TaskGraph::TaskId id)
        : slot_(std::move(slot)), id_(id) {}
    std::shared_ptr<Slot<T>> slot_;
    runtime::TaskGraph::TaskId id_ = 0;
  };

  /// Type-erased dependency reference; any Stage<T> converts implicitly.
  class StageRef {
   public:
    template <typename T>
    StageRef(const Stage<T>& stage)  // NOLINT(google-explicit-constructor)
        : id_(stage.id()), digest_(stage.slot_) {}

   private:
    friend class StageGraph;
    runtime::TaskGraph::TaskId id_;
    std::shared_ptr<const DigestSlot> digest_;
  };

  /// Both optional: null cache = pure compute, null io = synchronous I/O.
  explicit StageGraph(const StageCache* cache = nullptr,
                      AsyncIo* io = nullptr)
      : cache_(cache), io_(io) {}

  /// Adds a cached stage from its definition (stages.hpp). The stage's key
  /// is def.key() followed by the blob digests of `deps`, in order.
  /// `extra_deps` adds plain scheduling edges (no digest) on tasks added
  /// via add_task. Only a stage with no edges of either kind has a key
  /// fixed at build time, so only such a stage is prefetched through the
  /// AsyncIo; every other stage loads when it runs, under its run-time key.
  template <typename T>
  Stage<T> add_stage(StageDef<T> def, const std::vector<StageRef>& deps = {},
                     const std::vector<runtime::TaskGraph::TaskId>&
                         extra_deps = {}) {
    auto slot = std::make_shared<Slot<T>>();
    std::vector<std::shared_ptr<const DigestSlot>> upstream;
    upstream.reserve(deps.size());
    std::vector<runtime::TaskGraph::TaskId> dep_ids;
    dep_ids.reserve(deps.size() + extra_deps.size());
    for (const StageRef& d : deps) {
      upstream.push_back(d.digest_);
      dep_ids.push_back(d.id_);
    }
    dep_ids.insert(dep_ids.end(), extra_deps.begin(), extra_deps.end());
    AsyncIo::Ticket ticket;
    if (dep_ids.empty() && cache_ != nullptr && io_ != nullptr) {
      ticket = io_->prefetch(*cache_, def.name, def.key());
    }
    const char* name = def.name;
    const runtime::TaskGraph::TaskId id = graph_.add_task(
        name,
        [this, def = std::move(def), slot, upstream, ticket] {
          Fingerprint fp;
          if (cache_ != nullptr) {
            fp = def.key();
            for (const auto& d : upstream) fp.mix_u64(d->digest);
          }
          Staged<T> staged =
              staged_compute(cache_, io_, def.name, fp, def.compute,
                             def.serialize, def.deserialize, ticket);
          slot->value = std::move(staged.value);
          slot->digest = staged.blob_digest;
          slot->restored = staged.restored;
        },
        dep_ids);
    return Stage<T>(std::move(slot), id);
  }

  /// Adds a plain (uncached) node — glue work between stages, e.g. writing
  /// a derived report. Mixed stage/task dependencies go through the ids.
  runtime::TaskGraph::TaskId add_task(
      const char* name, std::function<void()> fn,
      const std::vector<runtime::TaskGraph::TaskId>& deps = {}) {
    return graph_.add_task(name, std::move(fn), deps);
  }

  /// Runs the DAG on `ex` (see TaskGraph::run for the determinism and
  /// failure contract), then drains the AsyncIo so every store enqueued by
  /// the run is on disk before this returns.
  void run(runtime::Executor& ex) {
    try {
      graph_.run(ex);
    } catch (...) {
      if (io_ != nullptr) io_->drain();
      throw;
    }
    if (io_ != nullptr) io_->drain();
  }

 private:
  runtime::TaskGraph graph_;
  const StageCache* cache_;
  AsyncIo* io_;
};

}  // namespace leodivide::snapshot
