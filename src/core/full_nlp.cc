#include "core/full_nlp.h"

#include <algorithm>
#include <cmath>

#include "core/formulation.h"
#include "util/error.h"
#include "util/logging.h"

namespace dvs::core {
namespace {

/// Smoothed min and its partials: smin(a, b) ~= min(a, b), C^inf.
struct SmoothMin {
  double value = 0.0;
  double da = 0.0;
  double db = 0.0;

  SmoothMin(double a, double b, double eps) {
    const double d = a - b;
    const double s = std::sqrt(d * d + eps * eps);
    value = 0.5 * (a + b - s);
    da = 0.5 * (1.0 - d / s);
    db = 0.5 * (1.0 + d / s);
  }
};

/// d t_cyc / d V = -speed'(V) * t_cyc(V)^2 = -k * t_cyc(V)^2.
double CycleTimeSlope(const model::LinearDvsModel& dvs, double v) {
  const double ct = dvs.CycleTime(v);
  return -dvs.k() * ct * ct;
}

/// Objective: sum ceff * vavg_u^2 * wavg_u.
class FullObjective final : public opt::Objective {
 public:
  FullObjective(const model::LinearDvsModel& dvs, std::size_t n)
      : dvs_(&dvs), n_(n) {}

  std::size_t dim() const override { return 6 * n_; }

  double Value(const opt::Vector& x) const override {
    const double ceff = dvs_->ceff();
    double total = 0.0;
    for (std::size_t u = 0; u < n_; ++u) {
      const double v = x[4 * n_ + u];
      const double w = x[2 * n_ + u];
      total += ceff * v * v * w;
    }
    return total;
  }

  void Gradient(const opt::Vector& x, opt::Vector& grad) const override {
    grad.assign(dim(), 0.0);
    const double ceff = dvs_->ceff();
    for (std::size_t u = 0; u < n_; ++u) {
      const double v = x[4 * n_ + u];
      const double w = x[2 * n_ + u];
      grad[2 * n_ + u] = ceff * v * v;
      grad[4 * n_ + u] = 2.0 * ceff * v * w;
    }
  }

 private:
  const model::LinearDvsModel* dvs_;
  std::size_t n_;
};

/// (definition of vavg)  e_u - savg_u - wworst_u * t_cyc(vavg_u) >= 0.
class WindowConstraint final : public opt::ConstraintFunction {
 public:
  WindowConstraint(const model::LinearDvsModel& dvs, std::size_t n,
                   std::size_t u)
      : dvs_(&dvs), n_(n), u_(u) {}

  opt::ConstraintKind kind() const override {
    return opt::ConstraintKind::kGeZero;
  }

  double Evaluate(const opt::Vector& x) const override {
    const double v = x[4 * n_ + u_];
    return x[n_ + u_] - x[u_] - x[3 * n_ + u_] * dvs_->CycleTime(v);
  }

  void AccumulateGradient(const opt::Vector& x, double weight,
                          opt::Vector& grad) const override {
    const double v = x[4 * n_ + u_];
    const double ct = dvs_->CycleTime(v);
    grad[n_ + u_] += weight;
    grad[u_] -= weight;
    grad[3 * n_ + u_] += weight * (-ct);
    grad[4 * n_ + u_] += weight * (-x[3 * n_ + u_] * CycleTimeSlope(*dvs_, v));
  }

  std::string name() const override {
    return "window[" + std::to_string(u_) + "]";
  }

 private:
  const model::LinearDvsModel* dvs_;
  std::size_t n_;
  std::size_t u_;
};

/// (10)  e_u - anchor - wworst_u * t_cyc(vworst_u) >= 0, where anchor is
/// either e_{u-1} (chain) or the constant release r_u.
class WorstChainConstraint final : public opt::ConstraintFunction {
 public:
  WorstChainConstraint(const model::LinearDvsModel& dvs, std::size_t n,
                       std::size_t u, bool from_previous, double release)
      : dvs_(&dvs),
        n_(n),
        u_(u),
        from_previous_(from_previous),
        release_(release) {}

  opt::ConstraintKind kind() const override {
    return opt::ConstraintKind::kGeZero;
  }

  double Evaluate(const opt::Vector& x) const override {
    const double v = x[5 * n_ + u_];
    const double anchor = from_previous_ ? x[n_ + (u_ - 1)] : release_;
    return x[n_ + u_] - anchor - x[3 * n_ + u_] * dvs_->CycleTime(v);
  }

  void AccumulateGradient(const opt::Vector& x, double weight,
                          opt::Vector& grad) const override {
    const double v = x[5 * n_ + u_];
    grad[n_ + u_] += weight;
    if (from_previous_) {
      grad[n_ + (u_ - 1)] -= weight;
    }
    grad[3 * n_ + u_] += weight * (-dvs_->CycleTime(v));
    grad[5 * n_ + u_] += weight * (-x[3 * n_ + u_] * CycleTimeSlope(*dvs_, v));
  }

  std::string name() const override {
    return std::string(from_previous_ ? "chain[" : "rel[") +
           std::to_string(u_) + "]";
  }

 private:
  const model::LinearDvsModel* dvs_;
  std::size_t n_;
  std::size_t u_;
  bool from_previous_;
  double release_;
};

/// (11)  savg_u - e_{u-1} + (wworst_{u-1} - wavg_{u-1}) * t_cyc(vavg_{u-1})
///       >= 0   (greedy slack pass-through bound).
class SlackBoundConstraint final : public opt::ConstraintFunction {
 public:
  SlackBoundConstraint(const model::LinearDvsModel& dvs, std::size_t n,
                       std::size_t u)
      : dvs_(&dvs), n_(n), u_(u) {}

  opt::ConstraintKind kind() const override {
    return opt::ConstraintKind::kGeZero;
  }

  double Evaluate(const opt::Vector& x) const override {
    const std::size_t p = u_ - 1;
    const double v = x[4 * n_ + p];
    const double slack = (x[3 * n_ + p] - x[2 * n_ + p]) * dvs_->CycleTime(v);
    return x[u_] - x[n_ + p] + slack;
  }

  void AccumulateGradient(const opt::Vector& x, double weight,
                          opt::Vector& grad) const override {
    const std::size_t p = u_ - 1;
    const double v = x[4 * n_ + p];
    const double ct = dvs_->CycleTime(v);
    grad[u_] += weight;
    grad[n_ + p] -= weight;
    grad[3 * n_ + p] += weight * ct;
    grad[2 * n_ + p] -= weight * ct;
    grad[4 * n_ + p] += weight * (x[3 * n_ + p] - x[2 * n_ + p]) *
                        CycleTimeSlope(*dvs_, v);
  }

  std::string name() const override {
    return "slack[" + std::to_string(u_) + "]";
  }

 private:
  const model::LinearDvsModel* dvs_;
  std::size_t n_;
  std::size_t u_;
};

/// (13)/(14)  wavg_k - smin(wworst_k, ACEC - sum_{j<k} wworst_j) >= 0.
class CaseSelectConstraint final : public opt::ConstraintFunction {
 public:
  CaseSelectConstraint(std::size_t n, std::size_t u,
                       std::vector<std::size_t> earlier, double acec,
                       double eps)
      : n_(n), u_(u), earlier_(std::move(earlier)), acec_(acec), eps_(eps) {}

  opt::ConstraintKind kind() const override {
    return opt::ConstraintKind::kGeZero;
  }

  double Evaluate(const opt::Vector& x) const override {
    double left = acec_;
    for (std::size_t j : earlier_) {
      left -= x[3 * n_ + j];
    }
    const SmoothMin m(x[3 * n_ + u_], left, eps_);
    return x[2 * n_ + u_] - m.value;
  }

  void AccumulateGradient(const opt::Vector& x, double weight,
                          opt::Vector& grad) const override {
    double left = acec_;
    for (std::size_t j : earlier_) {
      left -= x[3 * n_ + j];
    }
    const SmoothMin m(x[3 * n_ + u_], left, eps_);
    grad[2 * n_ + u_] += weight;
    grad[3 * n_ + u_] += weight * (-m.da);
    for (std::size_t j : earlier_) {
      grad[3 * n_ + j] += weight * m.db;  // -smin, d left/d wworst_j = -1
    }
  }

  std::string name() const override {
    return "case[" + std::to_string(u_) + "]";
  }

 private:
  std::size_t n_;
  std::size_t u_;
  std::vector<std::size_t> earlier_;
  double acec_;
  double eps_;
};

/// Epsilon of the smoothed min() in (13)-(14).
constexpr double kMinSmoothing = 1e-3;

/// The full model's one ALM configuration.
opt::AlmOptions FullNlpAlmOptions() {
  opt::AlmOptions alm;
  alm.max_outer = 20;
  alm.feasibility_tol = 1e-6;
  alm.initial_penalty = 10.0;
  alm.penalty_growth = 5.0;
  alm.inner.max_iterations = 600;
  alm.inner.tolerance = 1e-7;
  alm.inner_tol_start = 1e-3;
  return alm;
}

}  // namespace

FullNlp::FullNlp(const fps::FullyPreemptiveSchedule& fps,
                 const model::DvsModel& dvs, const FullNlpOptions& options)
    : fps_(&fps),
      dvs_(&PlanningModel(dvs)),
      options_(options),
      n_(fps.sub_count()) {
  ACS_REQUIRE(options_.planning.mixture.empty(),
              "the full NLP supports point planning only — the paper's "
              "constraint set has no mixture counterpart");
}

/// The per-task planning workload of constraints (12)-(14): the shared
/// PlanningPoint resolution rule (ACEC by default, clamped entry
/// otherwise), so the full and reduced formulations plan at literally the
/// same point.
double FullNlp::PlannedCycles(model::TaskIndex task) const {
  return PlanningPoint::ResolveFor(options_.planning.cycles,
                                   fps_->task_set(), task);
}

opt::Vector FullNlp::InitialPoint(
    const sim::StaticSchedule& warm_start) const {
  // Replay the warm start under the average scenario to seed every derived
  // variable consistently — at the same planning point the constraints
  // below will enforce.
  EnergyObjective reduced(*fps_, *dvs_, Scenario::kAverage, nullptr,
                          &options_.planning);
  const opt::Vector packed = reduced.PackSchedule(warm_start);
  const ForwardDetail detail = reduced.Replay(packed);

  opt::Vector x(dim(), 0.0);
  for (std::size_t u = 0; u < n_; ++u) {
    x[savg_index(u)] = detail.start[u];
    x[e_index(u)] = warm_start.end_time(u);
    x[wavg_index(u)] = detail.avg_cycles[u];
    x[wworst_index(u)] = warm_start.worst_budget(u);
    x[vavg_index(u)] = detail.voltage[u];
    x[vworst_index(u)] = dvs_->vmax();
  }
  return x;
}

FullNlpResult FullNlp::Solve(const sim::StaticSchedule& warm_start) const {
  const model::TaskSet& set = fps_->task_set();

  FullObjective objective(*dvs_, n_);

  // Boxes.
  opt::BoxSimplexSet feasible(dim());
  const std::vector<double>& end_cap = fps_->effective_end_bounds();
  for (std::size_t u = 0; u < n_; ++u) {
    const fps::SubInstance& sub = fps_->sub(u);
    const double wcec = set.task(sub.task).wcec;
    feasible.SetBounds(savg_index(u), sub.release(), sub.deadline);
    feasible.SetBounds(e_index(u), sub.seg_begin, end_cap[u]);
    feasible.SetBounds(wavg_index(u), 0.0, wcec);
    feasible.SetBounds(wworst_index(u), 0.0, wcec);
    feasible.SetBounds(vavg_index(u), dvs_->vmin(), dvs_->vmax());
    feasible.SetBounds(vworst_index(u), dvs_->vmin(), dvs_->vmax());
  }

  // Nonlinear constraint pool (owning) + linear conservation constraints.
  std::vector<std::unique_ptr<opt::ConstraintFunction>> owned;
  std::vector<opt::LinearConstraint> linear;

  for (std::size_t u = 0; u < n_; ++u) {
    const fps::SubInstance& sub = fps_->sub(u);
    owned.push_back(std::make_unique<WindowConstraint>(*dvs_, n_, u));
    owned.push_back(std::make_unique<WorstChainConstraint>(
        *dvs_, n_, u, /*from_previous=*/u > 0, sub.release()));
    if (u > 0 && sub.release() > 0.0) {
      owned.push_back(std::make_unique<WorstChainConstraint>(
          *dvs_, n_, u, /*from_previous=*/false, sub.release()));
    }
    if (u > 0) {
      owned.push_back(std::make_unique<SlackBoundConstraint>(*dvs_, n_, u));
    }
  }

  for (const fps::InstanceRecord& rec : fps_->instances()) {
    const model::Task& task = set.task(rec.info.task);
    const double planned = PlannedCycles(rec.info.task);

    opt::LinearConstraint worst_sum;
    worst_sum.kind = opt::ConstraintKind::kEqZero;
    worst_sum.constant = -task.wcec;
    opt::LinearConstraint avg_sum;
    avg_sum.kind = opt::ConstraintKind::kEqZero;
    avg_sum.constant = -planned;

    std::vector<std::size_t> earlier;
    for (std::size_t order : rec.subs) {
      worst_sum.terms.emplace_back(wworst_index(order), 1.0);
      avg_sum.terms.emplace_back(wavg_index(order), 1.0);

      // (12c) wworst_k - wavg_k >= 0.
      opt::LinearConstraint dominate;
      dominate.kind = opt::ConstraintKind::kGeZero;
      dominate.terms.emplace_back(wworst_index(order), 1.0);
      dominate.terms.emplace_back(wavg_index(order), -1.0);
      dominate.name = "dom[" + std::to_string(order) + "]";
      linear.push_back(std::move(dominate));

      owned.push_back(std::make_unique<CaseSelectConstraint>(
          n_, order, earlier, planned, kMinSmoothing));
      earlier.push_back(order);
    }
    worst_sum.name = "wcec-sum";
    avg_sum.name = "acec-sum";
    linear.push_back(std::move(worst_sum));
    linear.push_back(std::move(avg_sum));
  }

  std::vector<opt::LinearConstraintFn> linear_fns;
  linear_fns.reserve(linear.size());
  for (const opt::LinearConstraint& con : linear) {
    linear_fns.emplace_back(con);
  }
  std::vector<const opt::ConstraintFunction*> constraints;
  constraints.reserve(owned.size() + linear_fns.size());
  for (const auto& con : owned) {
    constraints.push_back(con.get());
  }
  for (const auto& fn : linear_fns) {
    constraints.push_back(&fn);
  }

  opt::Vector x = InitialPoint(warm_start);
  FullNlpResult result{warm_start, 0.0, {}};
  result.alm = opt::MinimizeAlm(objective, feasible, constraints, x,
                                FullNlpAlmOptions());
  result.objective = objective.Value(x);

  // Extract (e, wworst) and restore strict feasibility.
  std::vector<double> end_times(n_);
  std::vector<double> budgets(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    end_times[u] = x[e_index(u)];
    budgets[u] = x[wworst_index(u)];
  }
  if (auto repaired = RepairSchedule(*fps_, *dvs_, end_times, budgets)) {
    result.schedule = std::move(*repaired);
  } else {
    ACS_LOG_WARN << "full-NLP repair failed; returning warm start";
    result.schedule = warm_start;
  }
  return result;
}

}  // namespace dvs::core
