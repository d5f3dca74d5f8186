// Parallel loops with a determinism contract.
//
// Every parallel construct here partitions [begin, end) into chunks whose
// boundaries depend only on the range size and the grain — never on the
// thread count. Lanes claim chunks from one atomic counter per region, so
// a free lane always takes the lowest unclaimed chunk and one slow chunk
// delays only the lane running it. ParallelReduce folds each chunk's
// partial into the accumulator in chunk order, under a lock, as soon as
// every earlier chunk is folded; an inline reduction therefore holds one
// partial besides the accumulator. Scheduling decides only which lane runs
// a chunk and when a partial is freed: chunk boundaries, per-chunk Rng
// streams and the fold order are pure functions of the shape. Consequently
// any quantity computed through these constructs is bitwise identical for
// 1, 2, or N threads, and identical again when the runtime is capped by
// RuntimeOptions::num_threads, down to one inline lane.
//
// A region's caller claims chunks like any lane and returns once every
// claimed chunk has run; it never waits for a lane task that has not
// started (say, one queued behind another region's long chunk). Such a
// task finds no chunk left and exits without touching the loop body.
//
// Nested parallel regions execute inline on the calling lane (no deadlock,
// same chunk layout, same results).

#ifndef BLINKML_RUNTIME_PARALLEL_H_
#define BLINKML_RUNTIME_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/runtime_options.h"

namespace blinkml {

/// Loop index type (matches Matrix::Index / Dataset::Index width).
using ParallelIndex = std::ptrdiff_t;

/// Deterministic chunk layout: boundaries are a pure function of the range
/// size and grain. The chunk count is additionally capped (at
/// kMaxParallelChunks) so that per-chunk partials and Rng streams stay cheap
/// on huge ranges.
struct ChunkLayout {
  ParallelIndex chunk_size = 0;
  ParallelIndex num_chunks = 0;
};
ChunkLayout ComputeChunks(ParallelIndex n, ParallelIndex grain);

/// Hard cap on ComputeChunks' chunk count.
inline constexpr ParallelIndex kMaxParallelChunks = 64;

/// Upper bound on ComputeChunks(m, grain).num_chunks for every m <= n.
/// Needed by callers that allocate one slot buffer for many sub-ranges:
/// num_chunks is NOT monotone in the range size (it dips where the
/// kMaxParallelChunks cap starts to bind), so sizing by the largest range
/// alone under-allocates.
inline ParallelIndex MaxChunksForRanges(ParallelIndex n, ParallelIndex grain) {
  if (n <= 0) return 0;
  const ParallelIndex g = grain < 1 ? 1 : grain;
  const ParallelIndex by_grain = (n + g - 1) / g;
  return by_grain < kMaxParallelChunks ? by_grain : kMaxParallelChunks;
}

/// Default grain: small enough to balance triangular / uneven chunk costs,
/// large enough to amortize the per-chunk dispatch.
inline constexpr ParallelIndex kDefaultGrain = 64;

/// Grain for loops whose per-item cost is large or strongly uneven
/// (triangular Gram rows, Monte-Carlo draws). Part of the determinism
/// contract wherever the chunk layout feeds per-chunk Rng streams or
/// reduction slots — keep every such call site on this one constant.
inline constexpr ParallelIndex kFineGrain = 8;

/// Grain for per-example reduction loops (full gradients): large chunks
/// keep the number of theta-sized partial buffers small while still
/// splitting any real dataset across the pool. GradientGrain additionally
/// caps the chunk count at 16, so a pass zeroes and folds at most 16
/// gradient-sized partials however large the dataset (and, inline, holds
/// at most 2 of them at once: the accumulator and the chunk in flight).
/// Both are pure functions of n, so the layout stays thread-count
/// independent.
inline constexpr ParallelIndex kGradientGrain = 256;
inline constexpr ParallelIndex kMaxGradientChunks = 16;
inline ParallelIndex GradientGrain(ParallelIndex n) {
  const ParallelIndex capped =
      (n + kMaxGradientChunks - 1) / kMaxGradientChunks;
  return capped > kGradientGrain ? capped : kGradientGrain;
}

/// Lanes the next non-nested parallel region would use under the current
/// scope (1 when the scope caps it at one lane, the pool is 1-wide, or the
/// caller is already inside a region). Lets loops whose results are
/// layout-independent pick a coarser chunking when running serial.
int CurrentParallelism();

/// True while the calling thread is executing inside a parallel region
/// (used to run nested regions inline).
bool InParallelRegion();

/// Runs body(chunk_index, chunk_begin, chunk_end) for every chunk of
/// [begin, end). Exceptions thrown by any chunk abort outstanding chunks
/// and the first one is rethrown on the calling thread.
void ParallelForChunks(
    ParallelIndex begin, ParallelIndex end, ParallelIndex grain,
    const std::function<void(ParallelIndex, ParallelIndex, ParallelIndex)>&
        body);

/// Same, over a layout the caller already computed with ComputeChunks —
/// for call sites that size per-chunk state (e.g. one Rng stream per
/// chunk) and must index it with the exact layout the loop runs.
void ParallelForChunks(
    ParallelIndex begin, ParallelIndex end, const ChunkLayout& layout,
    const std::function<void(ParallelIndex, ParallelIndex, ParallelIndex)>&
        body);

/// Runs body(range_begin, range_end) over disjoint chunks of [begin, end).
void ParallelFor(ParallelIndex begin, ParallelIndex end,
                 const std::function<void(ParallelIndex, ParallelIndex)>& body,
                 ParallelIndex grain = kDefaultGrain);

/// Deterministic reduction: chunk_fn(chunk_begin, chunk_end) -> partial,
/// combined in chunk-index order as acc = combine(move(acc), partial).
/// Bitwise-reproducible for any thread count (the fold order is fixed).
/// A partial is folded, under a lock, as soon as every earlier chunk has
/// been folded; one that finishes ahead of an earlier chunk waits in a
/// per-chunk slot, allocated only then, so an inline reduction never
/// allocates slots and holds at most the accumulator and one partial.
template <typename T, typename ChunkFn, typename CombineFn>
T ParallelReduce(ParallelIndex begin, ParallelIndex end, T init,
                 const ChunkFn& chunk_fn, const CombineFn& combine,
                 ParallelIndex grain = kDefaultGrain) {
  const ChunkLayout layout = ComputeChunks(end - begin, grain);
  T acc = std::move(init);
  std::mutex mu;
  ParallelIndex next = 0;  // lowest chunk not yet folded
  std::vector<std::optional<T>> waiting;
  ParallelForChunks(
      begin, end, layout,
      [&](ParallelIndex chunk, ParallelIndex b, ParallelIndex e) {
        T partial = chunk_fn(b, e);
        std::lock_guard<std::mutex> lock(mu);
        if (chunk != next) {
          waiting.resize(static_cast<std::size_t>(layout.num_chunks));
          waiting[static_cast<std::size_t>(chunk)].emplace(std::move(partial));
          return;
        }
        acc = combine(std::move(acc), partial);
        for (++next; next < static_cast<ParallelIndex>(waiting.size()) &&
                     waiting[static_cast<std::size_t>(next)];
             ++next) {
          std::optional<T>& slot = waiting[static_cast<std::size_t>(next)];
          acc = combine(std::move(acc), *slot);
          slot.reset();
        }
      });
  return acc;
}

}  // namespace blinkml

#endif  // BLINKML_RUNTIME_PARALLEL_H_
