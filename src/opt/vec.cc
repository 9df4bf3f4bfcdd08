#include "opt/vec.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace dvs::opt {

// Reductions accumulate in index order, so every result is a fixed
// function of its inputs, independent of the host.

double Dot(const Vector& a, const Vector& b) {
  ACS_REQUIRE(a.size() == b.size(), "Dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

double NormInf(const Vector& a) {
  double best = 0.0;
  for (double value : a) {
    best = std::max(best, std::fabs(value));
  }
  return best;
}

void Axpy(double alpha, const Vector& x, Vector& y) {
  ACS_REQUIRE(x.size() == y.size(), "Axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

void Scale(double alpha, Vector& x) {
  for (double& value : x) {
    value *= alpha;
  }
}

Vector Subtract(const Vector& a, const Vector& b) {
  ACS_REQUIRE(a.size() == b.size(), "Subtract: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

Vector AddScaled(const Vector& a, double alpha, const Vector& b) {
  Vector out(a.size());
  AddScaledInto(a, alpha, b, out);
  return out;
}

void AddScaledInto(const Vector& a, double alpha, const Vector& b,
                   Vector& out) {
  ACS_REQUIRE(a.size() == b.size() && a.size() == out.size(),
              "AddScaled: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] + alpha * b[i];
  }
}

void Fill(Vector& x, double value) {
  std::fill(x.begin(), x.end(), value);
}

}  // namespace dvs::opt
