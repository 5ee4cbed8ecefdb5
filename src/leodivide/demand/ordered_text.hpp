#pragma once
// Ordered parallel text output, shared by the cell CSV save and the GeoJSON
// export: items are formatted in executor chunks into per-task strings, and
// each chunk's text reaches the output in item order, so the bytes are the
// same at every thread count.

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/parallel_for.hpp"

namespace leodivide::demand {

/// Formats items [0, n) and hands their text out in item order. Work runs
/// in rounds of at most `per_task` items per task, so the staged text stays
/// bounded whatever n is. In each round `format(text, lo, hi)` appends
/// items [lo, hi) to a cleared per-task string, concurrently across tasks
/// of at least `grain` items; then `write(text, lo, hi)` receives each
/// chunk's text in order on the calling thread. An exception from either
/// propagates (a format one per the Executor contract) and ends the output.
template <typename Format, typename Write>
void write_in_order(runtime::Executor& executor, std::size_t n,
                    std::size_t grain, std::size_t per_task,
                    const Format& format, const Write& write) {
  std::vector<std::string> text(executor.concurrency());
  const std::size_t round = text.size() * per_task;
  for (std::size_t begin = 0; begin < n; begin += round) {
    const std::size_t end = std::min(n, begin + round);
    const std::size_t tasks =
        runtime::chunk_count(executor, end - begin, grain);
    runtime::parallel_for_each(
        executor, 0, tasks,
        // leolint:allow(parallel-capture): each task appends only to its own text slot
        [&format, &text, begin, end, tasks](std::size_t t) {
          const runtime::ChunkRange r =
              runtime::chunk_range(begin, end, tasks, t);
          text[t].clear();
          format(text[t], r.lo, r.hi);
        });
    for (std::size_t t = 0; t < tasks; ++t) {
      const runtime::ChunkRange r = runtime::chunk_range(begin, end, tasks, t);
      write(std::string_view(text[t]), r.lo, r.hi);
    }
  }
}

}  // namespace leodivide::demand
