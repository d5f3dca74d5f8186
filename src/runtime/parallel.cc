#include "runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>

#include "runtime/thread_pool.h"

namespace blinkml {

namespace {

const RuntimeOptions kDefaultOptions;
thread_local const RuntimeOptions* g_current_options = &kDefaultOptions;
thread_local bool g_in_parallel_region = false;

// Cap on the chunk count (kMaxParallelChunks in the header); part of the
// chunk layout and therefore of the determinism contract (must not depend
// on thread count).
constexpr ParallelIndex kMaxChunks = kMaxParallelChunks;

// Shared state of one parallel region, owned jointly by the caller and
// every lane task it submits: a lane task that starts after the caller has
// returned still finds valid state, claims nothing and exits.
struct Region {
  const std::function<void(ParallelIndex, ParallelIndex, ParallelIndex)>* body;
  ParallelIndex begin;
  ParallelIndex end;
  ChunkLayout layout;
  // The caller's ambient RuntimeOptions, installed on every lane while it
  // runs chunks: chunk bodies consult the scope too (nested regions run
  // inline, and the ISA dispatch happens wherever a linalg entry point is
  // reached), so worker lanes must see the same options as the calling
  // thread or a scoped kernel_isa would apply on the caller only. The
  // pointee lives in a RuntimeScope on (or above) the caller's stack,
  // which outlives every chunk because the caller waits for each claimed
  // chunk before returning.
  const RuntimeOptions* ambient_options;

  std::atomic<ParallelIndex> next_chunk{0};  // the claim counter
  std::atomic<bool> abort{false};
  std::mutex mu;
  std::condition_variable done_cv;
  ParallelIndex chunks_done = 0;        // guarded by mu
  std::exception_ptr first_exception;  // guarded by mu

  // Claims the lowest unclaimed chunk until none is left. On exception
  // the region aborts: running chunks finish, the rest are claimed and
  // skipped, so chunks_done still reaches num_chunks.
  void RunLane() {
    ParallelIndex c = next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= layout.num_chunks) return;
    const bool was_in_region = g_in_parallel_region;
    const RuntimeOptions* previous_options = g_current_options;
    g_in_parallel_region = true;
    g_current_options = ambient_options;
    ParallelIndex finished = 0;
    for (; c < layout.num_chunks;
         c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      ++finished;
      if (abort.load(std::memory_order_relaxed)) continue;
      const ParallelIndex b = begin + c * layout.chunk_size;
      const ParallelIndex e = std::min(b + layout.chunk_size, end);
      try {
        (*body)(c, b, e);
      } catch (...) {
        abort.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        if (!first_exception) first_exception = std::current_exception();
      }
    }
    g_in_parallel_region = was_in_region;
    g_current_options = previous_options;
    std::lock_guard<std::mutex> lock(mu);
    chunks_done += finished;
    if (chunks_done == layout.num_chunks) done_cv.notify_all();
  }
};

}  // namespace

RuntimeScope::RuntimeScope(const RuntimeOptions& options)
    : options_(options), previous_(g_current_options) {
  g_current_options = &options_;
}

RuntimeScope::~RuntimeScope() { g_current_options = previous_; }

const RuntimeOptions& RuntimeScope::Current() { return *g_current_options; }

bool InParallelRegion() { return g_in_parallel_region; }

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) && defined(__GNUC__)
  return CpuHasAvx2() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

// The requested ISA, or the best level below it that the CPU has, so a
// stale env var or scope can't crash the process.
KernelIsa ClampToCpu(KernelIsa isa) {
  if (isa == KernelIsa::kAvx512 && !CpuHasAvx512()) isa = KernelIsa::kAvx2;
  if (isa == KernelIsa::kAvx2 && !CpuHasAvx2()) isa = KernelIsa::kScalar;
  return isa;
}

// Process-wide kAuto resolution: BLINKML_KERNEL_ISA=scalar|avx2 if set,
// else the best ISA the CPU has. Resolved once; a RuntimeScope with an
// explicit kernel_isa still overrides per scope.
KernelIsa ResolveAmbientIsa() {
  const char* env = std::getenv("BLINKML_KERNEL_ISA");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return KernelIsa::kScalar;
    if (std::strcmp(env, "avx2") == 0) return ClampToCpu(KernelIsa::kAvx2);
  }
  return ClampToCpu(KernelIsa::kAvx512);
}

}  // namespace

KernelIsa CurrentKernelIsa() {
  static const KernelIsa ambient = ResolveAmbientIsa();
  const KernelIsa scoped = RuntimeScope::Current().kernel_isa;
  if (scoped == KernelIsa::kAuto) return ambient;
  return ClampToCpu(scoped);
}

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
    default: return "auto";
  }
}

int CurrentParallelism() {
  const RuntimeOptions& options = RuntimeScope::Current();
  if (InParallelRegion()) return 1;
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::Global();
  const int lanes = options.num_threads > 0 ? options.num_threads
                                            : pool.parallelism();
  return std::max(1, std::min(lanes, pool.parallelism()));
}

ChunkLayout ComputeChunks(ParallelIndex n, ParallelIndex grain) {
  ChunkLayout layout;
  if (n <= 0) return layout;
  const ParallelIndex g = std::max<ParallelIndex>(grain, 1);
  layout.chunk_size = std::max(g, (n + kMaxChunks - 1) / kMaxChunks);
  layout.num_chunks = (n + layout.chunk_size - 1) / layout.chunk_size;
  return layout;
}

void ParallelForChunks(
    ParallelIndex begin, ParallelIndex end, ParallelIndex grain,
    const std::function<void(ParallelIndex, ParallelIndex, ParallelIndex)>&
        body) {
  ParallelForChunks(begin, end, ComputeChunks(end - begin, grain), body);
}

void ParallelForChunks(
    ParallelIndex begin, ParallelIndex end, const ChunkLayout& layout,
    const std::function<void(ParallelIndex, ParallelIndex, ParallelIndex)>&
        body) {
  if (layout.num_chunks == 0) return;

  const RuntimeOptions& options = RuntimeScope::Current();
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::Global();
  int lanes = options.num_threads > 0 ? options.num_threads
                                      : pool.parallelism();
  lanes = std::min(lanes, pool.parallelism());
  lanes = static_cast<int>(
      std::min<ParallelIndex>(lanes, layout.num_chunks));
  if (lanes <= 1 || InParallelRegion()) {
    // Inline execution: same chunk layout, same results, no handoff.
    for (ParallelIndex c = 0; c < layout.num_chunks; ++c) {
      const ParallelIndex b = begin + c * layout.chunk_size;
      body(c, b, std::min(b + layout.chunk_size, end));
    }
    return;
  }

  auto region = std::make_shared<Region>();
  region->body = &body;
  region->begin = begin;
  region->end = end;
  region->layout = layout;
  region->ambient_options = g_current_options;
  std::exception_ptr submit_failure;
  try {
    for (int lane = 1; lane < lanes; ++lane) {
      pool.Submit([region] { region->RunLane(); });
    }
  } catch (...) {
    // Lane tasks already enqueued may be running chunks; abort the rest
    // and still wait below so no chunk outlives `body`.
    submit_failure = std::current_exception();
    region->abort.store(true, std::memory_order_relaxed);
  }
  region->RunLane();
  {
    std::unique_lock<std::mutex> lock(region->mu);
    region->done_cv.wait(lock, [&region] {
      return region->chunks_done == region->layout.num_chunks;
    });
  }
  if (region->first_exception) {
    std::rethrow_exception(region->first_exception);
  }
  if (submit_failure) std::rethrow_exception(submit_failure);
}

void ParallelFor(ParallelIndex begin, ParallelIndex end,
                 const std::function<void(ParallelIndex, ParallelIndex)>& body,
                 ParallelIndex grain) {
  ParallelForChunks(begin, end, grain,
                    [&body](ParallelIndex, ParallelIndex b, ParallelIndex e) {
                      body(b, e);
                    });
}

}  // namespace blinkml
