// Lightweight runtime configuration: the knobs threaded through
// BlinkConfig and the RAII scope that installs them. Kept free of the
// threading headers so config-level headers (core/contract.h) stay thin;
// the parallel constructs themselves live in runtime/parallel.h.

#ifndef BLINKML_RUNTIME_RUNTIME_OPTIONS_H_
#define BLINKML_RUNTIME_RUNTIME_OPTIONS_H_

namespace blinkml {

class ThreadPool;

/// Which instruction set the kernels' inner loops run with
/// (linalg/kernels.h). The vector variants keep the kernels' exact
/// accumulation association — the 4 unrolled scalar chains become the 4
/// lanes of one ymm register (or one lane per batched column), merged in
/// the same (s0+s1)+(s2+s3) order, and FMA is deliberately not used — so
/// kAvx2 output is bitwise identical to kScalar output, not merely within
/// tolerance.
enum class KernelIsa {
  kAuto = 0,    // resolve from BLINKML_KERNEL_ISA, else CPU detection
  kScalar = 1,  // portable unrolled scalar loops
  kAvx2 = 2,    // AVX2 256-bit variants (requires CPU support)
};

/// Knobs for the parallel runtime, threaded through BlinkConfig and applied
/// with a RuntimeScope. The defaults (ambient when no scope is active) use
/// the global pool at full parallelism.
struct RuntimeOptions {
  /// Lanes a parallel region may use; 0 = the pool's full parallelism.
  /// Values above the pool's capacity are clamped (results are unaffected
  /// either way — see the determinism contract in runtime/parallel.h).
  /// 1 runs every chunk inline on the calling thread, in the same chunk
  /// layout, without a worker handoff.
  int num_threads = 0;

  /// Pool to run on; nullptr = ThreadPool::Global(). Tests inject local
  /// pools here to exercise specific thread counts deterministically.
  ThreadPool* pool = nullptr;

  /// Instruction set for the kernels' inner loops (see KernelIsa). kAuto
  /// resolves once per process: BLINKML_KERNEL_ISA=scalar|avx2 if set,
  /// else runtime CPU detection, clamped to scalar where AVX2 is
  /// unavailable.
  KernelIsa kernel_isa = KernelIsa::kAuto;
};

/// The resolved instruction set for the innermost active scope: the
/// scope's kernel_isa if it is not kAuto, else the process-wide resolution
/// of BLINKML_KERNEL_ISA / CPU detection. Never returns kAuto, and never
/// returns kAvx2 on a CPU without AVX2 support.
KernelIsa CurrentKernelIsa();

/// RAII ambient-options override (thread-local): parallel constructs
/// consult the innermost active scope. Coordinator::Train installs the
/// BlinkConfig's RuntimeOptions for the duration of a run. The options are
/// stored by value, so binding a temporary is safe.
class RuntimeScope {
 public:
  explicit RuntimeScope(const RuntimeOptions& options);
  ~RuntimeScope();

  RuntimeScope(const RuntimeScope&) = delete;
  RuntimeScope& operator=(const RuntimeScope&) = delete;

  /// The innermost active scope's options (defaults when none).
  static const RuntimeOptions& Current();

 private:
  RuntimeOptions options_;
  const RuntimeOptions* previous_;
};

}  // namespace blinkml

#endif  // BLINKML_RUNTIME_RUNTIME_OPTIONS_H_
