// Runtime-dispatched SIMD kernels for the solver hot loops.
//
// Every kernel has two implementations selected by a process-wide dispatch
// level: a scalar one that replicates the historical loops operation for
// operation (so the scalar level is bit-identical to the pre-SIMD tree and
// keeps the golden CSVs byte-stable), and an AVX2 one compiled with a
// per-function target attribute (no global -mavx2, so the binary still runs
// on plain x86-64; NEON boxes fall back to scalar).  The AVX2 reductions
// (Dot, Sum, StepAndSlope, SpectralPair) accumulate in four lanes and fold
// them in a fixed order — deterministic run to run and thread count to
// thread count, but a different FP association than the scalar loop, which
// is why vector dispatch is an explicit level and not an always-on fast
// path: callers that promise byte-stable output pin the scalar level.
//
// Level resolution: the first Active() call reads ACS_SIMD
// ("scalar" | "avx2" | "auto"); unset or "auto" picks the best level the
// CPU supports.  Requests above hardware support clamp down, never error.
// SetLevel/ScopedLevel re-pin at runtime (tests and benchmarks); the level
// is process-global and read with relaxed atomics — set it before spawning
// worker threads.
#ifndef ACS_UTIL_SIMD_H
#define ACS_UTIL_SIMD_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace dvs::util::simd {

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Best level this CPU (and build) supports.
Level Detect();

/// The current dispatch level (lazily resolved from ACS_SIMD / Detect()).
Level Active();

/// Pins the dispatch level; requests above Detect() clamp down.
void SetLevel(Level level);

const char* LevelName(Level level);

/// Parses "scalar" / "avx2" / "auto" (case-sensitive).  "auto" resolves to
/// Detect(); an explicit level above hardware support clamps down.  Returns
/// false on any other text.
bool ParseLevel(const std::string& text, Level* out);

/// RAII level pin for tests: forces `level` for the enclosing scope.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : saved_(Active()) { SetLevel(level); }
  ~ScopedLevel() { SetLevel(saved_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level saved_;
};

// ---- Kernels ---------------------------------------------------------------
// All kernels tolerate n == 0 and aliasing-free pointers; `out`/`y` may not
// alias the inputs unless stated.  Scalar level accumulates in index order.

/// sum a[i] * b[i].
double Dot(const double* a, const double* b, std::size_t n);

/// sum a[i] (index order at scalar level).
double Sum(const double* a, std::size_t n);

/// max |a[i]| (order-free; identical at every level).
double NormInf(const double* a, std::size_t n);

/// y[i] += alpha * x[i].
void Axpy(double alpha, const double* x, double* y, std::size_t n);

/// y[i] += x[i].
void Add(const double* x, double* y, std::size_t n);

/// x[i] *= alpha.
void Scale(double alpha, double* x, std::size_t n);

/// out[i] = a[i] - b[i].
void Subtract(const double* a, const double* b, double* out, std::size_t n);

/// out[i] = a[i] + alpha * b[i].
void AddScaled(const double* a, double alpha, const double* b, double* out,
               std::size_t n);

/// x[i] = min(max(x[i], lo[i]), hi[i]) — the branchless box clamp.
void ClampBox(const double* lo, const double* hi, double* x, std::size_t n);

/// direction[i] = trial[i] - x[i]; returns sum grad[i] * direction[i]
/// (the SPG fused direction-and-slope pass).
double StepAndSlope(const double* x, const double* grad, const double* trial,
                    double* direction, std::size_t n);

/// Barzilai-Borwein pair: s = lambda * direction, y = trial_grad - grad;
/// *sts = sum s*s, *sty = sum s*y.
void SpectralPair(double lambda, const double* direction, const double* grad,
                  const double* trial_grad, std::size_t n, double* sts,
                  double* sty);

/// Box-coordinate SPG criterion sweep:
///   max over i of |min(max(x[i] - grad[i], lo[i]), hi[i]) - x[i]| * mask[i]
/// where mask[i] is 1.0 for box coordinates and 0.0 for excluded (simplex-
/// owned) ones.  May return early with any sound lower bound once the
/// running max exceeds `threshold` (the caller's converged/not-converged
/// decision is identical either way).
double BoxCriterion(const double* x, const double* grad, const double* lo,
                    const double* hi, const double* mask, std::size_t n,
                    double threshold);

/// Batched 3-term linear rows, slot-major padded layout: slot t of row r is
/// coeff3[t * rows + r] * x[idx3[t * rows + r]]; rows with fewer terms pad
/// with coeff 0 / index 0.  out[r] = constant[r] + slot0 + slot1 + slot2.
/// The AVX2 path gathers four rows per step.
void PackedRows3(const double* constant, const double* coeff3,
                 const std::int32_t* idx3, const double* x, double* out,
                 std::size_t rows);

/// out[i] = cbrt(x[i]) (element-wise; identical at every level).  For
/// positive normal inputs it returns exactly the bits glibc's std::cbrt
/// returns, on any libm: the scalar level transcribes glibc's dbl-64 cube
/// root operation for operation and the AVX2 level runs the same
/// expressions four lanes wide.  Zero, subnormal, negative, inf and NaN
/// inputs defer to the platform's std::cbrt.  The
/// expected-case DP dispatch takes its bin roots here, so its decisions no
/// longer depend on the platform libm: its weights lie in [0, 1], and the
/// only special input among them, zero, has cube root zero under any libm.
void Cbrt(const double* x, double* out, std::size_t n);

}  // namespace dvs::util::simd

#endif  // ACS_UTIL_SIMD_H
