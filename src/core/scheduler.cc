#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/eval_workspace.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/chain_ipm.h"
#include "sim/engine.h"
#include "util/error.h"
#include "util/logging.h"

namespace dvs::core {

opt::AlmOptions SchedulerOptions::DefaultAlmOptions() {
  opt::AlmOptions alm;
  alm.max_outer = 14;
  alm.feasibility_tol = 1e-8;
  alm.initial_penalty = 10.0;
  alm.penalty_growth = 10.0;
  alm.inner.max_iterations = 700;
  alm.inner.tolerance = 1e-7;
  alm.inner_tol_start = 1e-4;
  return alm;
}

std::optional<sim::StaticSchedule> RepairSchedule(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    const std::vector<double>& end_times, const std::vector<double>& budgets) {
  ACS_REQUIRE(end_times.size() == fps.sub_count(), "end-time size mismatch");
  ACS_REQUIRE(budgets.size() == fps.sub_count(), "budget size mismatch");
  const model::TaskSet& set = fps.task_set();
  const double ct_max = dvs.CycleTime(dvs.vmax());

  // Exact per-instance budget projection (>= 0, sum == WCEC).
  std::vector<double> w = budgets;
  for (const fps::InstanceRecord& rec : fps.instances()) {
    std::vector<double> group;
    group.reserve(rec.subs.size());
    for (std::size_t order : rec.subs) {
      group.push_back(std::max(0.0, w[order]));
    }
    opt::ProjectOntoSimplex(group, set.task(rec.info.task).wcec);
    for (std::size_t j = 0; j < rec.subs.size(); ++j) {
      w[rec.subs[j]] = group[j];
    }
  }

  // Forward sweep: honour the worst-case chain; overflow spills to the next
  // sub-instance of the same instance.  Returns the residual budget per
  // instance that fell past its deadline.
  std::vector<double> e(fps.sub_count(), 0.0);
  std::vector<double> pending(fps.instance_count(), 0.0);
  const std::vector<double>& end_cap = fps.effective_end_bounds();
  const auto sweep = [&]() {
    std::fill(pending.begin(), pending.end(), 0.0);
    double finish = 0.0;
    for (std::size_t u = 0; u < fps.sub_count(); ++u) {
      const fps::SubInstance& sub = fps.sub(u);
      const double start = std::max(finish, sub.release());
      double want = w[u] + pending[sub.parent];
      pending[sub.parent] = 0.0;
      const double capacity =
          std::max(0.0, (end_cap[u] - start) / ct_max);
      if (want > capacity) {
        pending[sub.parent] = want - capacity;
        want = capacity;
      }
      w[u] = want;
      const double chain_min = start + w[u] * ct_max;
      e[u] = std::clamp(std::max(end_times[u], chain_min), sub.seg_begin,
                        end_cap[u]);
      if (w[u] > 0.0) {
        finish = e[u];
      }
    }
  };

  // Residual budget below this is dropped: it represents less processor
  // time than any tolerance in the system (audits use 1e-6, the engine
  // resolves events to 1e-9), so it cannot affect schedulability.
  const double drop_cycles = 1e-7 / ct_max;

  sweep();
  bool leftover = false;
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    if (pending[p] > drop_cycles) {
      // Residual that could not move later (capacity-tight tail, typically
      // solver dust).  Front-load it: the next sweep re-places it at the
      // earliest spare capacity of the instance instead.
      w[fps.instance(p).subs.front()] += pending[p];
      leftover = true;
    }
  }
  if (leftover) {
    sweep();
    for (std::size_t p = 0; p < fps.instance_count(); ++p) {
      if (pending[p] > drop_cycles) {
        ACS_LOG_DEBUG << "repair: instance " << p << " has " << pending[p]
                      << " cycles of budget past its deadline";
        return std::nullopt;
      }
    }
  }

  sim::StaticSchedule repaired(fps, std::move(e), std::move(w));
  const sim::FeasibilityReport audit = VerifyWorstCase(fps, repaired, dvs);
  if (!audit.feasible) {
    ACS_LOG_DEBUG << "repair audit failed: " << audit.detail;
    return std::nullopt;
  }
  return repaired;
}

namespace {

/// Shared solve body: `planning` is null for the paper's ACEC/WCEC solves
/// (exactly the historical construction, bit-for-bit) and a
/// scenario-conditioned point for SolvePlanned.
ScheduleResult SolveWith(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    Scenario scenario, const PlanningPoint* planning,
    const SchedulerOptions& options,
    const std::optional<sim::StaticSchedule>& warm_start,
    EvalWorkspace* workspace, const opt::AlmReport* dual_seed = nullptr) {
  // Telemetry (observation-only: none of this feeds back into the solve).
  // The phase label keys the span, the solve counter and the convergence
  // records to the same taxonomy the --csv-solver-stats columns use.
  const char* const phase = planning != nullptr          ? "planned"
                            : scenario == Scenario::kWorst ? "wcs"
                                                           : "acs";
  obs::Count(planning != nullptr        ? obs::metric::kPlannedSolves
             : scenario == Scenario::kWorst ? obs::metric::kWcsSolves
                                            : obs::metric::kAcsSolves);
  obs::ScopedWallTimer solve_timer(obs::metric::kSolveWallUs);
  obs::Span span("alm", "solve");
  if (span.enabled()) {
    span.Arg("phase", phase);
    span.Arg("warm", warm_start.has_value() ? "seeded" : "cold");
    span.Arg("dual", dual_seed != nullptr ? "seeded" : "cold");
  }
  obs::ConvergenceScope convergence(phase);

  const sim::StaticSchedule start_schedule =
      warm_start.has_value() ? *warm_start
                             : sim::BuildVmaxAsapSchedule(fps, dvs);

  EnergyObjective objective(
      fps, dvs, scenario,
      workspace != nullptr ? &workspace->objective_scratch() : nullptr,
      planning);
  const auto feasible_set = objective.BuildFeasibleSet();
  const std::vector<opt::LinearConstraint> chain =
      objective.BuildChainConstraints();

  opt::Vector x = objective.PackSchedule(start_schedule);
  const double start_energy = objective.Value(x);

  ScheduleResult result{start_schedule, start_energy, {}, false};
  opt::AlmOptions alm_options = options.alm;
  if (dual_seed != nullptr) {
    alm_options.dual_seed = &dual_seed->multipliers;
    alm_options.dual_penalty_seed = dual_seed->final_penalty;
  }
  // The observer goes on the local copy only, never into stored
  // SchedulerOptions, so solve-cache identity (SameSchedulerOptions) and
  // the solve trajectory are untouched.
  alm_options.observer = convergence.observer();
  result.alm = opt::MinimizeAlm(
      objective, *feasible_set, chain, x, alm_options,
      workspace != nullptr ? &workspace->solver().alm : nullptr);

  std::vector<double> end_times(fps.sub_count());
  std::vector<double> budgets(fps.sub_count());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    end_times[u] = x[u];
    budgets[u] = objective.BudgetOf(x, u);
  }
  std::optional<sim::StaticSchedule> repaired =
      RepairSchedule(fps, dvs, end_times, budgets);

  if (repaired.has_value()) {
    const double repaired_energy =
        objective.Value(objective.PackSchedule(*repaired));
    if (repaired_energy <= start_energy + 1e-12 * std::fabs(start_energy)) {
      result.schedule = std::move(*repaired);
      result.predicted_energy = repaired_energy;
      return result;
    }
    ACS_LOG_WARN << "solver result (" << repaired_energy
                 << ") worse than warm start (" << start_energy
                 << "); keeping warm start";
  } else {
    ACS_LOG_WARN << "feasibility repair failed; keeping warm start";
  }
  result.used_fallback = true;
  return result;
}

/// The exact WCS solve (DESIGN.md §2.2): the explicit-start chain program
/// solved by opt::SolveChain, its finish times taken as end-times, then the
/// usual repair and audit.  Returns nullopt, counting the fallback by
/// reason, when the solve cannot be certified or its schedule does not
/// survive repair; the caller then solves with the ALM.
std::optional<ScheduleResult> SolveWcsExact(
    const fps::FullyPreemptiveSchedule& fps, const model::LinearDvsModel& dvs,
    EvalWorkspace* workspace) {
  obs::ScopedWallTimer solve_timer(obs::metric::kSolveWallUs);
  obs::Span span("chain_ipm", "solve");
  const auto fall_back = [&span](const char* reason, obs::MetricId metric) {
    ACS_LOG_WARN << "exact WCS solve falls back to the ALM: " << reason;
    if (span.enabled()) {
      span.Arg("fallback", reason);
    }
    obs::Count(obs::metric::kWcsFallbacks);
    obs::Count(metric);
    return std::nullopt;
  };

  const model::TaskSet& set = fps.task_set();
  opt::ChainProblem problem;
  problem.release.resize(fps.sub_count());
  problem.cap = fps.effective_end_bounds();
  problem.group.resize(fps.sub_count());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    problem.release[u] = fps.sub(u).release();
    problem.group[u] = fps.sub(u).parent;
  }
  problem.group_total.resize(fps.instance_count());
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    problem.group_total[p] = set.task(fps.instance(p).info.task).wcec;
  }
  // speed = k V, so the energy ceff V^2 w of w cycles in d is
  // (ceff / k^2) w^3 / d^2.
  problem.energy_coeff = dvs.ceff() / (dvs.k() * dvs.k());
  problem.min_speed = dvs.k() * dvs.vmin();
  problem.max_speed = dvs.k() * dvs.vmax();

  opt::ChainSolution solution;
  const opt::ChainIpmReport report = opt::SolveChain(
      problem, solution,
      workspace != nullptr ? &workspace->solver().chain : nullptr);
  if (report.status == opt::ChainStatus::kNoInterior) {
    return fall_back("no strictly feasible start",
                     obs::metric::kWcsFallbackNoInterior);
  }
  if (report.status == opt::ChainStatus::kBreakdown) {
    return fall_back("KKT pivot breakdown", obs::metric::kWcsFallbackBreakdown);
  }
  std::optional<sim::StaticSchedule> repaired =
      RepairSchedule(fps, dvs, solution.finish, solution.budget);
  if (!repaired.has_value()) {
    return fall_back("repair rejected the schedule",
                     obs::metric::kWcsFallbackRepair);
  }
  // The certificate is restated for the schedule actually returned: its
  // replayed energy is that of an exactly feasible point of the reduced
  // problem, so it bounds the common optimum from above just as the dual
  // bound does from below.
  const EnergyObjective objective(
      fps, dvs, Scenario::kWorst,
      workspace != nullptr ? &workspace->objective_scratch() : nullptr);
  const double energy = objective.Value(objective.PackSchedule(*repaired));
  const double gap = std::max(0.0, (energy - report.dual) / energy);
  if (!(gap <= opt::kChainAcceptGap)) {
    return fall_back("duality gap above tolerance",
                     obs::metric::kWcsFallbackGap);
  }
  obs::Count(obs::metric::kWcsSolves);
  obs::Observe(obs::metric::kWcsGap, gap);
  ScheduleResult result{std::move(*repaired), energy, {}, false,
                        GapCertificate{energy, report.dual, gap}};
  opt::AlmReport& work = result.alm;
  work.feasible = true;
  work.inner_status = opt::SolveStatus::kConverged;
  work.outer_iterations = report.rounds;
  work.total_inner_iterations = report.newton_steps;
  work.evaluations = report.evaluations;
  work.final_value = energy;
  return result;
}

}  // namespace

ScheduleResult SolveSchedule(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    Scenario scenario, const SchedulerOptions& options,
    const std::optional<sim::StaticSchedule>& warm_start,
    EvalWorkspace* workspace) {
  return SolveWith(fps, dvs, scenario, nullptr, options, warm_start,
                   workspace);
}

ScheduleResult SolvePlanned(
    const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
    const PlanningPoint& planning, const SchedulerOptions& options,
    const std::optional<sim::StaticSchedule>& warm_start,
    EvalWorkspace* workspace, const opt::AlmReport* dual_seed) {
  return SolveWith(fps, dvs, Scenario::kAverage, &planning, options,
                   warm_start, workspace, dual_seed);
}

ScheduleResult SolveWcs(const fps::FullyPreemptiveSchedule& fps,
                        const model::DvsModel& dvs,
                        const SchedulerOptions& options,
                        EvalWorkspace* workspace) {
  if (const auto* linear = dynamic_cast<const model::LinearDvsModel*>(&dvs)) {
    if (std::optional<ScheduleResult> exact =
            SolveWcsExact(fps, *linear, workspace)) {
      return std::move(*exact);
    }
  }
  return SolveSchedule(fps, dvs, Scenario::kWorst, options, std::nullopt,
                       workspace);
}

ScheduleResult SolveAcs(const fps::FullyPreemptiveSchedule& fps,
                        const model::DvsModel& dvs,
                        const SchedulerOptions& options,
                        EvalWorkspace* workspace) {
  return SolveSchedule(fps, dvs, Scenario::kAverage, options,
                       SolveWcs(fps, dvs, options, workspace).schedule,
                       workspace);
}

}  // namespace dvs::core
