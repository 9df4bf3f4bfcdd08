// Paper-faithful NLP formulation (constraints (6)-(14) of §3.2).
//
// Unlike the reduced formulation — which eliminates every derived quantity
// and optimises only end-times + budgets — this model carries the paper's
// original variable set per sub-instance:
//
//   savg  : average-case start time
//   e     : end-time
//   wavg  : average-case workload
//   wworst: worst-case workload budget
//   vavg  : dispatch voltage in the average-case scenario
//   vworst: voltage reserved for the worst-case guarantee
//
// with the paper's constraints: release/deadline/voltage boxes (6)-(9), the
// worst-case chain e_u - e_{u-1} >= wworst_u * t_cyc(vworst_u) (10), the
// greedy slack bound on savg (11), workload conservation and domination
// (12), and the case-1/case-2 selection (13)-(14) — realised here as a
// smoothed  wavg_k >= min(wworst_k, ACEC - sum_{j<k} wworst_j)  which,
// combined with (12), pins the unique Fig. 5 assignment.
//
// The model is nonconvex and ~6x larger than the reduced one; it exists as
// a fidelity artefact: tests check both formulations agree on small systems
// and bench_ablation_solver compares cost/quality.
#ifndef ACS_CORE_FULL_NLP_H
#define ACS_CORE_FULL_NLP_H

#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/power_model.h"
#include "opt/augmented_lagrangian.h"
#include "sim/static_schedule.h"

namespace dvs::core {

/// The solver configuration (ALM budget, smoothing of the min() in
/// (13)-(14)) is a constant of full_nlp.cc; only the planning point varies.
struct FullNlpOptions {
  /// Per-task planning point replacing ACEC in the workload-conservation
  /// constraint (12) and the case selection (13)-(14) — the full-model twin
  /// of the reduced objective's PlanningPoint threading, so the two
  /// formulations stay comparable per arm.  Point shape only (`cycles`);
  /// the K-vector mixture has no counterpart in the paper's constraint
  /// set and is rejected at construction.  Default: the ACEC point,
  /// bit-identical to the pre-planning model.
  PlanningPoint planning;
};

struct FullNlpResult {
  sim::StaticSchedule schedule;   // extracted (e, wworst)
  double objective = 0.0;         // sum ceff * vavg^2 * wavg
  opt::AlmReport alm;
};

class FullNlp {
 public:
  FullNlp(const fps::FullyPreemptiveSchedule& fps, const model::DvsModel& dvs,
          const FullNlpOptions& options = {});

  /// Solves starting from a worst-case-feasible schedule (typically the
  /// reduced solver's output or the Vmax-ASAP schedule).
  FullNlpResult Solve(const sim::StaticSchedule& warm_start) const;

  // Variable layout (n = sub-instance count): block b in
  // {savg, e, wavg, wworst, vavg, vworst} at offset b*n + order.
  std::size_t dim() const { return 6 * n_; }
  std::size_t savg_index(std::size_t u) const { return u; }
  std::size_t e_index(std::size_t u) const { return n_ + u; }
  std::size_t wavg_index(std::size_t u) const { return 2 * n_ + u; }
  std::size_t wworst_index(std::size_t u) const { return 3 * n_ + u; }
  std::size_t vavg_index(std::size_t u) const { return 4 * n_ + u; }
  std::size_t vworst_index(std::size_t u) const { return 5 * n_ + u; }

 private:
  opt::Vector InitialPoint(const sim::StaticSchedule& warm_start) const;
  double PlannedCycles(model::TaskIndex task) const;

  const fps::FullyPreemptiveSchedule* fps_;
  const model::LinearDvsModel* dvs_;
  FullNlpOptions options_;
  std::size_t n_;
};

}  // namespace dvs::core

#endif  // ACS_CORE_FULL_NLP_H
