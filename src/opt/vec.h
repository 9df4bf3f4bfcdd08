// Dense vector kernels for the NLP solver.
//
// Problems here are small (a few thousand variables), so a std::vector of
// doubles plus a handful of free functions is the right level of machinery —
// no expression templates, no BLAS dependency.
#ifndef ACS_OPT_VEC_H
#define ACS_OPT_VEC_H

#include <cstddef>
#include <vector>

namespace dvs::opt {

using Vector = std::vector<double>;

/// Dot product; requires equal sizes.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm2(const Vector& a);

/// Max-norm.
double NormInf(const Vector& a);

/// y += alpha * x.
void Axpy(double alpha, const Vector& x, Vector& y);

/// x *= alpha.
void Scale(double alpha, Vector& x);

/// out = a - b.
Vector Subtract(const Vector& a, const Vector& b);

/// out = a + alpha * b.
Vector AddScaled(const Vector& a, double alpha, const Vector& b);

/// out[i] = a[i] + alpha * b[i] into a caller-sized `out` (no allocation);
/// `out` may not alias `a` or `b`.
void AddScaledInto(const Vector& a, double alpha, const Vector& b,
                   Vector& out);

/// Sets every element to `value`.
void Fill(Vector& x, double value);

}  // namespace dvs::opt

#endif  // ACS_OPT_VEC_H
