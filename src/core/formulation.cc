#include "core/formulation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "opt/vec.h"
#include "util/error.h"

namespace dvs::core {
namespace {

constexpr double kCycleEps = 1e-9;   // budgets below this execute nothing
constexpr double kWindowEps = 1e-12; // windows below this mean "infinitely fast"

}  // namespace

const model::LinearDvsModel& PlanningModel(const model::DvsModel& dvs) {
  if (const auto* linear = dynamic_cast<const model::LinearDvsModel*>(&dvs)) {
    return *linear;
  }
  throw util::InvalidArgumentError(
      "planning needs a linear-law model (speed = k*V)");
}

double PlanningPoint::ResolveFor(const std::vector<double>& cycles,
                                 const model::TaskSet& set,
                                 std::size_t task) {
  const model::Task& spec = set.task(task);
  if (cycles.empty()) {
    return spec.acec;
  }
  ACS_REQUIRE(task < cycles.size(),
              "planning point is missing an entry for task " +
                  std::to_string(task));
  // std::clamp passes NaN straight through and would pin +-inf to a window
  // edge; only finite out-of-window entries take the documented clamp.
  ACS_REQUIRE(std::isfinite(cycles[task]),
              "planning point entry for task " + std::to_string(task) +
                  " must be finite");
  return std::clamp(cycles[task], spec.bcec, spec.wcec);
}

std::uint64_t PlanningPoint::Fingerprint() const {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  };
  const auto mix_double = [&mix](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  mix(1);  // shape tag: point block
  mix(static_cast<std::uint64_t>(cycles.size()));
  for (double value : cycles) {
    mix_double(value);
  }
  mix(2);  // shape tag: mixture block
  mix(static_cast<std::uint64_t>(mixture.size()));
  for (const std::vector<double>& row : mixture) {
    mix(static_cast<std::uint64_t>(row.size()));
    for (double value : row) {
      mix_double(value);
    }
  }
  return hash;
}

EnergyObjective::EnergyObjective(const fps::FullyPreemptiveSchedule& fps,
                                 const model::DvsModel& dvs,
                                 Scenario scenario, ObjectiveScratch* scratch,
                                 const PlanningPoint* planning)
    : fps_(&fps),
      dvs_(&PlanningModel(dvs)),
      scenario_(scenario),
      scratch_(scratch != nullptr ? scratch : &own_scratch_) {
  n_ = fps.sub_count();
  records_.resize(n_);
  plan_by_sub_.resize(n_);
  const model::TaskSet& set = fps.task_set();

  static const PlanningPoint kAcecPoint;
  const PlanningPoint& plan = planning != nullptr ? *planning : kAcecPoint;
  ACS_REQUIRE(plan.cycles.empty() || plan.mixture.empty(),
              "a planning point carries either a point or a mixture, "
              "not both");
  ACS_REQUIRE(plan.IsAcec() || scenario == Scenario::kAverage,
              "planning points apply to average-scenario solves only");

  std::size_t next_var = n_;
  // Assign budget variables parent by parent so each instance's variables
  // are contiguous (simplex groups need index lists anyway, but contiguity
  // helps debugging).
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    const fps::InstanceRecord& rec = fps.instance(p);
    const bool multi = rec.subs.size() >= 2;
    for (std::size_t order : rec.subs) {
      const fps::SubInstance& sub = fps.sub(order);
      SubRecord& r = records_[order];
      r.parent = p;
      r.k = sub.k;
      r.release = sub.release();
      plan_by_sub_[order] =
          PlanningPoint::ResolveFor(plan.cycles, set, sub.task);
      r.wcec = set.task(sub.task).wcec;
      r.has_budget_var = multi;
      if (multi) {
        r.budget_var = next_var++;
      }
    }
  }
  dim_ = next_var;

  mixture_rows_ = plan.mixture.size();
  if (mixture_rows_ > 0) {
    mixture_by_sub_.resize(mixture_rows_ * n_);
    for (std::size_t row = 0; row < mixture_rows_; ++row) {
      for (std::size_t u = 0; u < n_; ++u) {
        mixture_by_sub_[row * n_ + u] =
            PlanningPoint::ResolveFor(plan.mixture[row], set, fps.sub(u).task);
      }
    }
  }
  ct_vmax_ = dvs.CycleTime(dvs.vmax());
  max_speed_ = dvs.MaxSpeed();
  k_ = dvs_->k();
  inv_k_ = 1.0 / k_;
}

bool EnergyObjective::HasBudgetVariable(std::size_t order) const {
  ACS_REQUIRE(order < n_, "sub-instance index out of range");
  return records_[order].has_budget_var;
}

std::size_t EnergyObjective::budget_index(std::size_t order) const {
  ACS_REQUIRE(HasBudgetVariable(order), "sub-instance has a fixed budget");
  return records_[order].budget_var;
}

double EnergyObjective::BudgetOf(const opt::Vector& x,
                                 std::size_t order) const {
  const SubRecord& r = records_[order];
  return r.has_budget_var ? x[r.budget_var] : r.wcec;
}

double EnergyObjective::Value(const opt::Vector& x) const {
  return Evaluate(x, nullptr, nullptr);
}

void EnergyObjective::Gradient(const opt::Vector& x,
                               opt::Vector& grad) const {
  // The reverse pass writes every component exactly once (each end-time and
  // budget variable belongs to exactly one sub-instance), so no zero-fill
  // is needed — only the size.
  grad.resize(dim_);
  (void)Evaluate(x, &grad, nullptr);
}

double EnergyObjective::ValueAndGradient(const opt::Vector& x,
                                         opt::Vector& grad) const {
  grad.resize(dim_);
  return Evaluate(x, &grad, nullptr);
}

ForwardDetail EnergyObjective::Replay(const opt::Vector& x) const {
  ForwardDetail detail;
  detail.start.resize(n_);
  detail.avg_cycles.resize(n_);
  detail.voltage.resize(n_);
  detail.finish.resize(n_);
  detail.energy.resize(n_);
  detail.total_energy = Evaluate(x, nullptr, &detail);
  return detail;
}

double EnergyObjective::EvaluateOnce(const double* plan, const opt::Vector& x,
                                     opt::Vector* grad,
                                     ForwardDetail* detail) const {
  return scenario_ == Scenario::kAverage
             ? EvaluateImpl<true>(plan, x, grad, detail)
             : EvaluateImpl<false>(plan, x, grad, detail);
}

void EnergyObjective::GradientAfterValue(const opt::Vector& x,
                                         opt::Vector& grad) const {
  if (mixture_rows_ > 0) {
    // The mixture's per-row forward states are not kept; recompute.
    (void)ValueAndGradient(x, grad);
    return;
  }
  // The single replay's forward state is still in the scratch: run only the
  // reverse pass (the same one ValueAndGradient would run after it).
  grad.resize(dim_);
  if (scenario_ == Scenario::kAverage) {
    ReverseImpl<true>(grad);
  } else {
    ReverseImpl<false>(grad);
  }
}

double EnergyObjective::Evaluate(const opt::Vector& x, opt::Vector* grad,
                                 ForwardDetail* detail) const {
  if (mixture_rows_ == 0) {
    return EvaluateOnce(plan_by_sub_.data(), x, grad, detail);
  }

  // Mixture planning: the objective is the *mean* replay over the K
  // calibrated sample vectors, so value and gradient average row results
  // (d/dx of a mean is the mean of the gradients — the replays share x).
  // Detail rows average too: Replay then reports expected start / finish /
  // voltage / energy under the calibrated law.
  const double inv_rows = 1.0 / static_cast<double>(mixture_rows_);
  double total = 0.0;
  if (grad != nullptr) {
    grad->assign(dim_, 0.0);
  }
  ForwardDetail row_detail;
  if (detail != nullptr) {
    row_detail.start.resize(n_);
    row_detail.avg_cycles.resize(n_);
    row_detail.voltage.resize(n_);
    row_detail.finish.resize(n_);
    row_detail.energy.resize(n_);
    std::fill(detail->start.begin(), detail->start.end(), 0.0);
    std::fill(detail->avg_cycles.begin(), detail->avg_cycles.end(), 0.0);
    std::fill(detail->voltage.begin(), detail->voltage.end(), 0.0);
    std::fill(detail->finish.begin(), detail->finish.end(), 0.0);
    std::fill(detail->energy.begin(), detail->energy.end(), 0.0);
  }

  std::vector<double>& row_grad = scratch_->mix_grad;
  for (std::size_t row = 0; row < mixture_rows_; ++row) {
    const double* plan = mixture_by_sub_.data() + row * n_;
    opt::Vector* row_grad_ptr = nullptr;
    if (grad != nullptr) {
      row_grad.resize(dim_);
      row_grad_ptr = &row_grad;
    }
    total += EvaluateOnce(plan, x, row_grad_ptr,
                          detail != nullptr ? &row_detail : nullptr);
    // y += 1.0 * x adds x exactly, so each row sums in as it always has.
    if (grad != nullptr) {
      opt::Axpy(1.0, row_grad, *grad);
    }
    if (detail != nullptr) {
      opt::Axpy(1.0, row_detail.start, detail->start);
      opt::Axpy(1.0, row_detail.avg_cycles, detail->avg_cycles);
      opt::Axpy(1.0, row_detail.voltage, detail->voltage);
      opt::Axpy(1.0, row_detail.finish, detail->finish);
      opt::Axpy(1.0, row_detail.energy, detail->energy);
    }
  }

  total *= inv_rows;
  if (grad != nullptr) {
    opt::Scale(inv_rows, *grad);
  }
  if (detail != nullptr) {
    opt::Scale(inv_rows, detail->start);
    opt::Scale(inv_rows, detail->avg_cycles);
    opt::Scale(inv_rows, detail->voltage);
    opt::Scale(inv_rows, detail->finish);
    opt::Scale(inv_rows, detail->energy);
  }
  return total;
}

template <bool kAverageScenario>
double EnergyObjective::EvaluateImpl(const double* plan, const opt::Vector& x,
                                     opt::Vector* grad,
                                     ForwardDetail* detail) const {
  ACS_REQUIRE(x.size() == dim_, "point dimension mismatch");
  using Clamp = ObjectiveScratch::Clamp;
  const double ceff = dvs_->ceff();
  const double vmin = dvs_->vmin();
  const double vmax = dvs_->vmax();
  const double k = k_;
  // Cycle times at the clamp rails, hoisted: a clamped dispatch runs at
  // exactly vmin/vmax, so the cycle time 1 / (k V) is one of these two
  // constants.
  const double ct_vmin = 1.0 / (k * vmin);
  const double ct_vmax = 1.0 / (k * vmax);

  // ---- Forward pass --------------------------------------------------------
  // All per-sub state lives in the scratch (SoA); every slot read below is
  // written by this pass first, so stale values from earlier evaluations
  // cannot leak through.
  ObjectiveScratch& scratch = *scratch_;
  scratch.ResizeSubs(n_);
  double* const w = scratch.w.data();
  double* const avg = scratch.avg.data();
  double* const s = scratch.s.data();
  double* const d = scratch.d.data();
  double* const v = scratch.v.data();
  double* const ct = scratch.ct.data();
  double* const f = scratch.f.data();
  double* const energy = scratch.energy.data();
  AvgCase* const avg_case = scratch.avg_case.data();
  Clamp* const clamp = scratch.clamp.data();
  unsigned char* const s_from_finish = scratch.s_from_finish.data();
  unsigned char* const executes = scratch.executes.data();

  // Phase one — worst-case budgets, separable per sub.
  for (std::size_t u = 0; u < n_; ++u) {
    w[u] = std::max(0.0, BudgetOf(x, u));
    executes[u] = w[u] > kCycleEps ? 1 : 0;
  }

  // Cumulative worst-case budget per parent (before the current sub) —
  // only the average-case analysis consumes it.
  double* cum = nullptr;
  if constexpr (kAverageScenario) {
    scratch.cum.assign(fps_->instance_count(), 0.0);
    cum = scratch.cum.data();
  }

  // Phase two — the scenario chain (sequential: s_u depends on f_{u-1}).
  double f_prev = 0.0;
  for (std::size_t u = 0; u < n_; ++u) {
    const SubRecord& r = records_[u];

    if constexpr (kAverageScenario) {
      const double left = plan[u] - cum[r.parent];
      if (left >= w[u]) {
        avg[u] = w[u];
        avg_case[u] = AvgCase::kFull;
      } else if (left > 0.0) {
        avg[u] = left;
        avg_case[u] = AvgCase::kPartial;
      } else {
        avg[u] = 0.0;
        avg_case[u] = AvgCase::kEmpty;
      }
      cum[r.parent] += w[u];
    } else {
      avg[u] = w[u];
      avg_case[u] = AvgCase::kFull;
    }

    s_from_finish[u] = f_prev >= r.release ? 1 : 0;
    s[u] = s_from_finish[u] ? f_prev : r.release;
    d[u] = x[u] - s[u];

    if (executes[u]) {
      // Clamp classification is deliberately *exclusive* at the boundaries:
      // a dispatch sitting exactly at Vmax/Vmin keeps the interior one-sided
      // derivative, so the solver can still pull end-times off the Vmax-tight
      // warm start (whose chain constraints are all exactly active).
      // (The w / d speed is only read when d is non-degenerate, exactly as
      // the short-circuit evaluated it.)
      const double speed = w[u] / d[u];
      if (d[u] <= kWindowEps || speed > max_speed_) {
        v[u] = vmax;
        clamp[u] = Clamp::kAboveMax;
        ct[u] = ct_vmax;
      } else {
        const double v_raw = speed / k;
        if (v_raw < vmin) {
          v[u] = vmin;
          clamp[u] = Clamp::kBelowMin;
          ct[u] = ct_vmin;
        } else if (v_raw > vmax) {
          v[u] = vmax;
          clamp[u] = Clamp::kAboveMax;
          ct[u] = ct_vmax;
        } else {
          v[u] = v_raw;
          clamp[u] = Clamp::kInside;
          ct[u] = 1.0 / (k * v[u]);
        }
      }
      f[u] = s[u] + avg[u] * ct[u];
      energy[u] = ceff * v[u] * v[u] * avg[u];
    } else {
      v[u] = vmin;
      clamp[u] = Clamp::kBelowMin;
      ct[u] = ct_vmin;
      f[u] = s[u];  // executes nothing
      energy[u] = 0.0;
    }
    f_prev = f[u];
  }

  // Phase three — energy reduction over the per-sub array, in index order:
  // the same executing terms in the same order as the historical in-loop
  // accumulation (non-executing slots contribute an exact +0.0), so the
  // value is bit-identical.
  double total = 0.0;
  for (std::size_t u = 0; u < n_; ++u) {
    total += energy[u];
  }

  if (detail != nullptr) {
    std::copy(s, s + n_, detail->start.begin());
    std::copy(avg, avg + n_, detail->avg_cycles.begin());
    std::copy(v, v + n_, detail->voltage.begin());
    std::copy(f, f + n_, detail->finish.begin());
    std::copy(energy, energy + n_, detail->energy.begin());
  }

  if (grad != nullptr) {
    ReverseImpl<kAverageScenario>(*grad);
  }
  return total;
}

template <bool kAverageScenario>
void EnergyObjective::ReverseImpl(opt::Vector& grad) const {
  using Clamp = ObjectiveScratch::Clamp;
  const double ceff = dvs_->ceff();
  ObjectiveScratch& scratch = *scratch_;
  const double* const w = scratch.w.data();
  const double* const avg = scratch.avg.data();
  const double* const d = scratch.d.data();
  const double* const v = scratch.v.data();
  const double* const ct = scratch.ct.data();
  const AvgCase* const avg_case = scratch.avg_case.data();
  const Clamp* const clamp = scratch.clamp.data();
  const unsigned char* const s_from_finish = scratch.s_from_finish.data();
  const unsigned char* const executes = scratch.executes.data();

  // ---- Reverse pass --------------------------------------------------------
  // g_f[u]: adjoint of the finish time f_u.  Only sub u+1's start depends on
  // f_u (through the max branch), so reverse iteration accumulates it just
  // in time.  carry[p]: sum of dO/d avg over later *partial* sub-instances
  // of parent p — each earlier budget variable of p shifts those averages by
  // -1 (Fig. 5 semantics).
  scratch.g_f.assign(n_, 0.0);
  double* const g_f = scratch.g_f.data();
  double* carry = nullptr;
  if constexpr (kAverageScenario) {
    scratch.carry.assign(fps_->instance_count(), 0.0);
    carry = scratch.carry.data();
  }

  for (std::size_t u = n_; u-- > 0;) {
    const SubRecord& r = records_[u];

    double d_avg = 0.0;   // dO / d avg_u
    double d_volt = 0.0;  // dO / d V_u
    double d_s = g_f[u];  // dO / d s_u  (f_u = s_u + avg*ct -> df/ds = 1)
    double d_e = 0.0;     // dO / d e_u
    double d_w = 0.0;     // dO / d w_u

    if (executes[u]) {
      d_avg = ceff * v[u] * v[u] + g_f[u] * ct[u];
      if (clamp[u] == Clamp::kInside) {
        // dct/dV = -speed'(V) / speed(V)^2 = -k * ct^2
        const double dct_dv = -k_ * ct[u] * ct[u];
        d_volt = 2.0 * ceff * v[u] * avg[u] + g_f[u] * avg[u] * dct_dv;
        // V = V(speed = w/d); the shared d_volt * slope factor and the
        // w / d^2 term are hoisted (multiplication is left-associative, so
        // the groupings below are the ones the spelled-out products used).
        const double slope = inv_k_;  // dV/dspeed
        const double inv_d = 1.0 / d[u];
        const double ds = d_volt * slope;
        const double w_inv_d2 = w[u] * inv_d * inv_d;
        d_e += ds * (-w_inv_d2);
        d_s += ds * w_inv_d2;
        d_w += ds * inv_d;
      }
    }

    // Budget routing through the case analysis.  Under the worst-case
    // scenario every sub is kFull with zero carry, so the routing collapses
    // to d_w + d_avg.
    if constexpr (kAverageScenario) {
      if (r.has_budget_var) {
        double d_w_total = d_w - carry[r.parent];
        if (avg_case[u] == AvgCase::kFull) {
          d_w_total += d_avg;
        }
        grad[r.budget_var] = d_w_total;
      }
      if (avg_case[u] == AvgCase::kPartial) {
        carry[r.parent] += d_avg;
      }
    } else {
      if (r.has_budget_var) {
        grad[r.budget_var] = d_w + d_avg;
      }
    }

    // Start-time routing through the max() branch.
    if (s_from_finish[u] && u > 0) {
      g_f[u - 1] += d_s;
    }
    grad[u] = d_e;
  }
}

std::shared_ptr<opt::BoxSimplexSet> EnergyObjective::BuildFeasibleSet() const {
  auto set = std::make_shared<opt::BoxSimplexSet>(dim_);
  const std::vector<double>& end_cap = fps_->effective_end_bounds();
  for (std::size_t u = 0; u < n_; ++u) {
    const fps::SubInstance& sub = fps_->sub(u);
    // Upper bound: monotone end-time cap (suffix-min of segment ends), the
    // transitive requirement of the chain constraints.
    set->SetBounds(u, sub.seg_begin, end_cap[u]);
  }
  for (std::size_t p = 0; p < fps_->instance_count(); ++p) {
    const fps::InstanceRecord& rec = fps_->instance(p);
    if (rec.subs.size() < 2) {
      continue;
    }
    std::vector<std::size_t> indices;
    indices.reserve(rec.subs.size());
    for (std::size_t order : rec.subs) {
      indices.push_back(records_[order].budget_var);
    }
    const double wcec =
        fps_->task_set().task(rec.info.task).wcec;
    set->AddSimplex(std::move(indices), wcec);
  }
  return set;
}

std::vector<opt::LinearConstraint>
EnergyObjective::BuildChainConstraints() const {
  std::vector<opt::LinearConstraint> constraints;
  constraints.reserve(2 * n_);
  for (std::size_t u = 0; u < n_; ++u) {
    const SubRecord& r = records_[u];

    // e_u - e_{u-1} - ct_max * w_u >= 0  (u == 0 chains from time zero).
    opt::LinearConstraint chain;
    chain.kind = opt::ConstraintKind::kGeZero;
    chain.terms.emplace_back(u, 1.0);
    if (u > 0) {
      chain.terms.emplace_back(u - 1, -1.0);
    }
    if (r.has_budget_var) {
      chain.terms.emplace_back(r.budget_var, -ct_vmax_);
    } else {
      chain.constant -= ct_vmax_ * r.wcec;
    }
    chain.name = "chain[" + std::to_string(u) + "]";
    constraints.push_back(std::move(chain));

    // e_u - r_u - ct_max * w_u >= 0.  Redundant for u == 0 only when
    // r_0 == 0; emit unless provably identical.
    if (u == 0 && r.release == 0.0) {
      continue;
    }
    opt::LinearConstraint release;
    release.kind = opt::ConstraintKind::kGeZero;
    release.terms.emplace_back(u, 1.0);
    release.constant = -r.release;
    if (r.has_budget_var) {
      release.terms.emplace_back(r.budget_var, -ct_vmax_);
    } else {
      release.constant -= ct_vmax_ * r.wcec;
    }
    release.name = "release[" + std::to_string(u) + "]";
    constraints.push_back(std::move(release));
  }
  return constraints;
}

opt::Vector EnergyObjective::PackSchedule(
    const sim::StaticSchedule& schedule) const {
  ACS_REQUIRE(schedule.size() == n_, "schedule size mismatch");
  opt::Vector x(dim_, 0.0);
  for (std::size_t u = 0; u < n_; ++u) {
    x[u] = schedule.end_time(u);
    if (records_[u].has_budget_var) {
      x[records_[u].budget_var] = schedule.worst_budget(u);
    }
  }
  return x;
}

sim::StaticSchedule EnergyObjective::ExtractSchedule(
    const opt::Vector& x) const {
  ACS_REQUIRE(x.size() == dim_, "point dimension mismatch");
  std::vector<double> end_times(n_);
  std::vector<double> budgets(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    end_times[u] = x[u];
    budgets[u] = BudgetOf(x, u);
  }
  return sim::StaticSchedule(*fps_, std::move(end_times), std::move(budgets));
}

}  // namespace dvs::core
