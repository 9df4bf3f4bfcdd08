#include "sim/static_schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace dvs::sim {

StaticSchedule::StaticSchedule(const fps::FullyPreemptiveSchedule& fps,
                               std::vector<double> end_times,
                               std::vector<double> worst_budgets)
    : end_times_(std::move(end_times)),
      worst_budgets_(std::move(worst_budgets)) {
  ACS_REQUIRE(end_times_.size() == fps.sub_count(),
              "end-time array does not match the sub-instance count");
  ACS_REQUIRE(worst_budgets_.size() == fps.sub_count(),
              "budget array does not match the sub-instance count");
  for (std::size_t u = 0; u < worst_budgets_.size(); ++u) {
    ACS_REQUIRE(std::isfinite(end_times_[u]), "non-finite end-time");
    ACS_REQUIRE(std::isfinite(worst_budgets_[u]),
                "non-finite worst-case budget");
    ACS_REQUIRE(worst_budgets_[u] >= -1e-9, "negative worst-case budget");
    worst_budgets_[u] = std::max(0.0, worst_budgets_[u]);
  }
}

double StaticSchedule::end_time(std::size_t order) const {
  ACS_REQUIRE(order < end_times_.size(), "order index out of range");
  return end_times_[order];
}

double StaticSchedule::worst_budget(std::size_t order) const {
  ACS_REQUIRE(order < worst_budgets_.size(), "order index out of range");
  return worst_budgets_[order];
}

FeasibilityReport VerifyWorstCase(const fps::FullyPreemptiveSchedule& fps,
                                  const StaticSchedule& schedule,
                                  const model::DvsModel& dvs, double tol) {
  FeasibilityReport report;
  report.worst_slack = std::numeric_limits<double>::infinity();
  const double ct_max = dvs.CycleTime(dvs.vmax());

  const auto fail = [&report](const std::string& message) {
    if (report.feasible) {
      report.feasible = false;
      report.detail = message;
    }
  };

  double finish = 0.0;
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    const fps::SubInstance& sub = fps.sub(u);
    const double e = schedule.end_time(u);
    const double w = schedule.worst_budget(u);

    // Every comparison with a NaN is false, so a non-finite value would
    // slip through each test below: reject it explicitly.
    if (!std::isfinite(e) || !std::isfinite(w)) {
      std::ostringstream msg;
      msg << "sub " << u << " has a non-finite end-time (" << e
          << ") or budget (" << w << ")";
      fail(msg.str());
      continue;
    }
    if (e < sub.seg_begin - tol || e > sub.seg_end + tol) {
      std::ostringstream msg;
      msg << "end-time of sub " << u << " (" << e << ") outside segment ["
          << sub.seg_begin << ", " << sub.seg_end << "]";
      fail(msg.str());
    }

    // Zero-budget sub-instances execute nothing at runtime; their end-times
    // are inert bookkeeping, so the chain check only applies to positive
    // budgets.
    if (w <= tol) {
      continue;
    }
    // Worst-case start: the previous positive-budget sub-instance is
    // stretched by the greedy dispatcher to finish exactly at its scheduled
    // end-time, so the chain anchors on the end-times themselves.
    const double start = std::max(finish, sub.release());
    const double needed = start + w * ct_max;
    const double slack = e - needed;
    report.worst_slack = std::min(report.worst_slack, slack);
    if (!std::isfinite(slack)) {
      std::ostringstream msg;
      msg << "worst-case chain of sub " << u << " is non-finite (needs until "
          << needed << ", e " << e << ")";
      fail(msg.str());
    } else if (slack < -tol) {
      std::ostringstream msg;
      msg << "worst-case chain misses end-time of sub " << u
          << ": needs until " << needed << " > e " << e;
      fail(msg.str());
    }
    finish = e;
  }

  // Budget conservation per instance.
  const model::TaskSet& set = fps.task_set();
  for (const fps::InstanceRecord& rec : fps.instances()) {
    double total = 0.0;
    for (std::size_t order : rec.subs) {
      total += schedule.worst_budget(order);
    }
    const double wcec = set.task(rec.info.task).wcec;
    if (std::fabs(total - wcec) > tol * std::max(1.0, wcec)) {
      std::ostringstream msg;
      msg << "budgets of " << set.task(rec.info.task).name << "["
          << rec.info.instance << "] sum to " << total << ", expected WCEC "
          << wcec;
      fail(msg.str());
    }
  }
  return report;
}

std::vector<double> ComputeWorstStarts(const fps::FullyPreemptiveSchedule& fps,
                                       const StaticSchedule& schedule,
                                       const model::DvsModel& dvs) {
  std::vector<double> starts(fps.sub_count(), 0.0);
  (void)dvs;  // the chain anchors on end-times; the model is kept for API
              // symmetry with VerifyWorstCase
  double finish = 0.0;
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    const fps::SubInstance& sub = fps.sub(u);
    starts[u] = std::max(finish, sub.release());
    if (schedule.worst_budget(u) > 0.0) {
      finish = schedule.end_time(u);
    }
  }
  return starts;
}

}  // namespace dvs::sim
