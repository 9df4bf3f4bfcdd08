#include "opt/spg.h"

#include <algorithm>
#include <cmath>

#include "opt/workspace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/simd.h"

namespace dvs::opt {

const char* SolveStatusName(SolveStatus status) {
  switch (status) {
    case SolveStatus::kConverged:
      return "converged";
    case SolveStatus::kMaxIterations:
      return "max-iterations";
    case SolveStatus::kLineSearchFailed:
      return "line-search-failed";
  }
  return "unknown";
}

SpgReport MinimizeSpg(const Objective& objective, const FeasibleSet& set,
                      Vector& x, const SpgOptions& options,
                      SpgWorkspace* workspace) {
  ACS_REQUIRE(x.size() == objective.dim(), "start point dimension mismatch");
  SpgReport report;

  // Caller-provided scratch keeps the whole solve allocation-free after
  // warm-up; a call-local workspace gives identical results otherwise.
  SpgWorkspace local;
  SpgWorkspace& ws = workspace != nullptr ? *workspace : local;

  set.Project(x, ws.projection);
  Vector& grad = ws.grad;
  grad.assign(x.size(), 0.0);
  double f = objective.ValueAndGradient(x, grad);
  ++report.evaluations;

  std::vector<double>& recent = ws.recent;
  recent.clear();
  recent.push_back(f);
  double step = 1.0;
  Vector& trial = ws.trial;
  Vector& trial_grad = ws.trial_grad;
  Vector& direction = ws.direction;
  trial.resize(x.size());
  trial_grad.resize(x.size());
  direction.resize(x.size());

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    report.iterations = iter + 1;

    // Projected-gradient direction with the current spectral step
    // (x + (-step) * grad is bit-identical to x - step * grad).
    util::simd::AddScaled(x.data(), -step, grad.data(), trial.data(),
                          x.size());
    set.Project(trial, ws.projection);
    // Direction and its slope against the gradient in one pass (at scalar
    // dispatch the sum accumulates in index order, exactly as Dot would).
    const double slope = util::simd::StepAndSlope(
        x.data(), grad.data(), trial.data(), direction.data(), x.size());

    // Convergence: unit-step projected gradient displacement.  The set may
    // return early with a lower bound once it exceeds the tolerance (the
    // stop decision is identical either way; see FeasibleSet::SpgCriterion).
    const double criterion =
        set.SpgCriterion(x, grad, options.tolerance, ws.projection);
    report.criterion = criterion;
    if (criterion <= options.tolerance) {
      report.status = SolveStatus::kConverged;
      report.final_value = f;
      return report;
    }
    if (slope >= 0.0) {
      // Projection produced a non-descent direction (can happen exactly at
      // a kink); fall back to the raw projected-gradient step.
      report.status = SolveStatus::kLineSearchFailed;
      report.final_value = f;
      return report;
    }

    const double f_ref = *std::max_element(recent.begin(), recent.end());
    double lambda = 1.0;
    bool accepted = false;
    double f_new = f;
    std::size_t backtracks = 0;
    for (std::size_t bt = 0; bt <= options.max_backtracks; ++bt) {
      backtracks = bt;
      util::simd::AddScaled(x.data(), lambda, direction.data(), trial.data(),
                            x.size());
      // Points on the chord between two feasible points stay feasible for
      // convex sets, so no re-projection is needed.  Trials cost the value
      // only; the accepted one gets its gradient below.
      f_new = objective.Value(trial);
      ++report.evaluations;
      if (f_new <= f_ref + options.armijo_c * lambda * slope) {
        accepted = true;
        break;
      }
      lambda *= options.backtrack;
    }
    if (!accepted) {
      ACS_LOG_DEBUG << "SPG line search failed at iter " << iter
                    << " (f=" << f << ")";
      report.status = SolveStatus::kLineSearchFailed;
      report.final_value = f;
      return report;
    }

    objective.GradientAfterValue(trial, trial_grad);

    // Barzilai-Borwein spectral step from the accepted move.
    double sts = 0.0;
    double sty = 0.0;
    util::simd::SpectralPair(lambda, direction.data(), grad.data(),
                             trial_grad.data(), x.size(), &sts, &sty);
    step = (sty > 0.0)
               ? std::clamp(sts / sty, options.step_min, options.step_max)
               : options.step_max;

    if (options.observer != nullptr) {
      // Observation only — reads the accepted state, touches nothing the
      // arithmetic path uses, so traced and untraced solves are
      // bit-identical.
      SpgIterationEvent event;
      event.iteration = report.iterations;
      event.value = f_new;
      event.criterion = criterion;
      event.step = step;
      event.step_length = lambda;
      event.backtracks = backtracks;
      event.evaluations = report.evaluations;
      options.observer->OnSpgIteration(event);
    }

    std::swap(x, trial);
    std::swap(grad, trial_grad);
    f = f_new;
    recent.push_back(f);
    if (recent.size() > options.history) {
      recent.erase(recent.begin());
    }
  }

  report.status = SolveStatus::kMaxIterations;
  report.final_value = f;
  return report;
}

}  // namespace dvs::opt
