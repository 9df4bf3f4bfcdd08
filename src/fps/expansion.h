// Fully preemptive schedule expansion (paper §3.1, Figs. 3-4).
//
// Every task instance in the hyper-period is split at every release of a
// strictly-higher-priority task inside its [release, deadline] window.  The
// resulting sub-instances are the atoms of the ACS optimisation: each gets
// its own end-time and worst-case workload budget.  Their *total order* —
// sort by segment start, then dispatch rank — is the execution order of the
// worst-case preemptive schedule, and drives both the NLP chain constraints
// and the greedy runtime's slack hand-off.
//
// Equal-period tasks share a priority (paper §2.1): they never cut each
// other, and the task index breaks dispatch ties deterministically.
#ifndef ACS_FPS_EXPANSION_H
#define ACS_FPS_EXPANSION_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "model/task.h"

namespace dvs::fps {

/// One sub-instance T_{i,j,k}: the k-th preemption segment of instance j of
/// task i.  `order` is its position in the total order.
struct SubInstance {
  std::size_t order = 0;        // position in the total order
  model::TaskIndex task = 0;    // owning task
  std::int64_t instance = 0;    // owning instance number (0-based)
  std::size_t parent = 0;       // index into FullyPreemptiveSchedule::instances()
  int k = 0;                    // sub-instance number within the parent (0-based)
  double seg_begin = 0.0;       // segment start == earliest possible start
  double seg_end = 0.0;         // segment end == next higher-priority release
                                // (or the parent deadline for the last one)
  double deadline = 0.0;        // parent instance's absolute deadline

  double release() const { return seg_begin; }
};

/// Parent-instance record with the order-indices of its sub-instances
/// (ascending k; not contiguous in the total order).
struct InstanceRecord {
  model::TaskInstance info;
  std::vector<std::size_t> subs;  // order indices, ascending k
};

class FullyPreemptiveSchedule {
 public:
  /// Expands `set` over one hyper-period.  The schedule refers to `set`,
  /// which must outlive it: a temporary set does not compile.
  explicit FullyPreemptiveSchedule(const model::TaskSet& set);
  explicit FullyPreemptiveSchedule(model::TaskSet&&) = delete;

  const model::TaskSet& task_set() const { return *set_; }

  /// Sub-instances in total order.
  const std::vector<SubInstance>& subs() const { return subs_; }
  std::size_t sub_count() const { return subs_.size(); }
  const SubInstance& sub(std::size_t order) const;

  /// Parent instances (ordered by release, then dispatch rank).
  const std::vector<InstanceRecord>& instances() const { return instances_; }
  std::size_t instance_count() const { return instances_.size(); }
  const InstanceRecord& instance(std::size_t idx) const;

  /// Largest number of sub-instances any single instance was split into.
  int max_subs_per_instance() const { return max_subs_per_instance_; }

  /// Effective upper bound for each sub-instance's end-time:
  /// suffix-minimum of segment ends along the total order.  End-times must
  /// be non-decreasing through the total order (the transitive closure of
  /// the paper's chain constraint (10)), so a sub-instance can never be
  /// scheduled to end later than any *later* sub-instance's segment allows —
  /// e.g. a high-priority segment that stretches past a low-priority
  /// deadline boundary is capped at that boundary.
  const std::vector<double>& effective_end_bounds() const {
    return effective_end_;
  }

  /// Structural self-check (segments partition windows, order sorted, ...).
  /// Throws InternalError on violation.  Cheap; called from tests.
  void Validate() const;

  /// Human-readable total order, e.g. "T1[0].0 T2[0].0 T2[0].1 ..."
  std::string DescribeOrder() const;

 private:
  const model::TaskSet* set_;  // non-owning; callers keep the set alive
  std::vector<SubInstance> subs_;
  std::vector<InstanceRecord> instances_;
  std::vector<double> effective_end_;
  int max_subs_per_instance_ = 0;
};

/// The sub-instance count of `set`'s expansion, without building it: every
/// instance counts 1 plus the distinct releases of strictly
/// higher-priority tasks inside its window.  The count stops as soon as it
/// exceeds `limit` and then returns some value above it (the generator's
/// cap test needs no more).
std::size_t CountSubInstances(
    const model::TaskSet& set,
    std::size_t limit = std::numeric_limits<std::size_t>::max());

}  // namespace dvs::fps

#endif  // ACS_FPS_EXPANSION_H
