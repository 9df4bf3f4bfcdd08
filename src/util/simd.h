// Host CPU detection and the cube-root kernel of the expected-case DP
// dispatch.
//
// Every solver loop runs one scalar arithmetic on every host, so results do
// not depend on the CPU.  The one vector path left is Cbrt's: it has a
// scalar and an AVX2 implementation (compiled with a per-function target
// attribute, so the binary still runs on plain x86-64) that return
// identical bits, and Active() picks the faster one the CPU supports.
#ifndef ACS_UTIL_SIMD_H
#define ACS_UTIL_SIMD_H

#include <cstddef>

namespace dvs::util::simd {

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// The best level this CPU (and build) supports; it selects Cbrt's
/// implementation and is recorded in manifests.
Level Active();

const char* LevelName(Level level);

/// out[i] = cbrt(x[i]) (element-wise; identical bits at every level).  For
/// positive normal inputs it returns exactly the bits glibc's std::cbrt
/// returns, on any libm: the scalar implementation transcribes glibc's
/// dbl-64 cube root operation for operation and the AVX2 one runs the same
/// expressions four lanes wide.  Zero, subnormal, negative, inf and NaN
/// inputs defer to the platform's std::cbrt.  The expected-case DP dispatch
/// takes its bin roots here, so its decisions do not depend on the platform
/// libm: its weights lie in [0, 1], and the only special input among them,
/// zero, has cube root zero under any libm.
void Cbrt(const double* x, double* out, std::size_t n);

namespace detail {

/// Cbrt through the implementation of `level`, which must not exceed
/// Active().  Lets tests pin both implementations on one host.
void CbrtAt(Level level, const double* x, double* out, std::size_t n);

}  // namespace detail

}  // namespace dvs::util::simd

#endif  // ACS_UTIL_SIMD_H
