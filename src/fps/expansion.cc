#include "fps/expansion.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/math.h"

namespace dvs::fps {
namespace {

/// Release times of tasks that can preempt `victim`, strictly inside
/// (window_begin, window_end), written sorted and de-duplicated into `cuts`
/// (cleared first; callers reuse one buffer across instances).  Every
/// release is an integer multiple of an integer period, so releases compare
/// exactly.
void CutPoints(const model::TaskSet& set, model::TaskIndex victim,
               double window_begin, double window_end,
               std::vector<double>& cuts) {
  cuts.clear();
  for (model::TaskIndex other = 0; other < set.size(); ++other) {
    if (!set.CanPreempt(other, victim)) {
      continue;
    }
    const double period = static_cast<double>(set.task(other).period);
    // First release at or after window_begin (exclusive).
    double first = period * std::ceil(window_begin / period);
    if (first <= window_begin) {
      first += period;
    }
    for (double t = first; t < window_end; t += period) {
      cuts.push_back(t);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
}

}  // namespace

FullyPreemptiveSchedule::FullyPreemptiveSchedule(const model::TaskSet& set)
    : set_(&set) {
  const std::vector<model::TaskInstance> raw = model::EnumerateInstances(set);
  instances_.reserve(raw.size());
  for (const model::TaskInstance& inst : raw) {
    instances_.push_back(InstanceRecord{inst, {}});
  }

  // Build all sub-instances, then sort into the total order.  One cut and
  // one bound buffer serve every instance.
  std::vector<SubInstance> subs;
  std::vector<double> cuts;
  std::vector<double> bounds;
  for (std::size_t p = 0; p < instances_.size(); ++p) {
    const model::TaskInstance& inst = instances_[p].info;
    CutPoints(set, inst.task, inst.release, inst.deadline, cuts);
    bounds.clear();
    bounds.push_back(inst.release);
    bounds.insert(bounds.end(), cuts.begin(), cuts.end());
    bounds.push_back(inst.deadline);
    for (double bound : bounds) {
      ACS_CHECK(bound == std::floor(bound),
                "segment boundary is not an integer time");
    }

    for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
      SubInstance sub;
      sub.task = inst.task;
      sub.instance = inst.instance;
      sub.parent = p;
      sub.k = static_cast<int>(s);
      sub.seg_begin = bounds[s];
      sub.seg_end = bounds[s + 1];
      sub.deadline = inst.deadline;
      subs.push_back(sub);
    }
    instances_[p].subs.reserve(bounds.size() - 1);
    max_subs_per_instance_ = std::max(
        max_subs_per_instance_, static_cast<int>(bounds.size()) - 1);
  }

  // Segment starts are integer times (checked above), so they compare
  // exactly and the comparator is a strict weak ordering.
  std::sort(subs.begin(), subs.end(),
            [&set](const SubInstance& a, const SubInstance& b) {
              if (a.seg_begin != b.seg_begin) {
                return a.seg_begin < b.seg_begin;
              }
              if (a.task != b.task) {
                return set.OutranksForDispatch(a.task, b.task);
              }
              return a.k < b.k;
            });

  subs_ = std::move(subs);
  for (std::size_t order = 0; order < subs_.size(); ++order) {
    subs_[order].order = order;
    instances_[subs_[order].parent].subs.push_back(order);
  }
  // Suffix-minimum of segment ends: the monotone end-time cap.
  effective_end_.resize(subs_.size());
  double running = std::numeric_limits<double>::infinity();
  for (std::size_t order = subs_.size(); order-- > 0;) {
    running = std::min(running, subs_[order].seg_end);
    effective_end_[order] = running;
  }
  // `subs` within each parent must be ascending in k; the global sort keeps
  // them in segment order, which coincides with k order.
  Validate();
}

const SubInstance& FullyPreemptiveSchedule::sub(std::size_t order) const {
  ACS_REQUIRE(order < subs_.size(), "sub-instance order index out of range");
  return subs_[order];
}

const InstanceRecord& FullyPreemptiveSchedule::instance(
    std::size_t idx) const {
  ACS_REQUIRE(idx < instances_.size(), "instance index out of range");
  return instances_[idx];
}

void FullyPreemptiveSchedule::Validate() const {
  // Total order sorted by (seg_begin, dispatch rank).
  for (std::size_t u = 1; u < subs_.size(); ++u) {
    const SubInstance& prev = subs_[u - 1];
    const SubInstance& cur = subs_[u];
    ACS_CHECK(prev.seg_begin <= cur.seg_begin + 1e-9,
              "total order not sorted by segment start");
    ACS_CHECK(subs_[u].order == u, "order index mismatch");
  }
  // Per-instance: segments partition [release, deadline].
  for (const InstanceRecord& rec : instances_) {
    ACS_CHECK(!rec.subs.empty(), "instance with no sub-instances");
    double cursor = rec.info.release;
    int expected_k = 0;
    for (std::size_t order : rec.subs) {
      const SubInstance& sub = subs_[order];
      ACS_CHECK(sub.parent < instances_.size(), "bad parent index");
      ACS_CHECK(&instances_[sub.parent] == &rec, "parent back-pointer broken");
      ACS_CHECK(sub.k == expected_k, "sub-instance k not consecutive");
      ACS_CHECK(util::AlmostEqual(sub.seg_begin, cursor),
                "segments do not tile the instance window");
      ACS_CHECK(sub.seg_end > sub.seg_begin, "empty segment");
      cursor = sub.seg_end;
      ++expected_k;
    }
    ACS_CHECK(util::AlmostEqual(cursor, rec.info.deadline),
              "segments do not reach the instance deadline");
  }
}

std::string FullyPreemptiveSchedule::DescribeOrder() const {
  std::ostringstream out;
  for (std::size_t u = 0; u < subs_.size(); ++u) {
    const SubInstance& sub = subs_[u];
    if (u > 0) out << ' ';
    out << set_->task(sub.task).name << '[' << sub.instance << "]." << sub.k;
  }
  return out.str();
}

std::size_t CountSubInstances(const model::TaskSet& set, std::size_t limit) {
  const std::int64_t horizon = set.hyper_period();
  std::size_t count = 0;
  std::vector<std::int64_t> period;
  std::vector<std::int64_t> next;
  for (model::TaskIndex victim = 0; victim < set.size(); ++victim) {
    const std::int64_t own = set.task(victim).period;
    count += static_cast<std::size_t>(horizon / own);
    // Every release of a higher-priority task strictly inside one of the
    // victim's windows (one that is not a multiple of its own period) adds
    // a sub-instance; coinciding releases add one.
    period.clear();
    for (model::TaskIndex other = 0; other < set.size(); ++other) {
      if (set.CanPreempt(other, victim)) {
        period.push_back(set.task(other).period);
      }
    }
    std::sort(period.begin(), period.end());
    period.erase(std::unique(period.begin(), period.end()), period.end());
    next = period;
    while (count <= limit && !next.empty()) {
      const std::int64_t t = *std::min_element(next.begin(), next.end());
      if (t >= horizon) {
        break;
      }
      count += t % own != 0 ? 1 : 0;
      for (std::size_t k = 0; k < next.size(); ++k) {
        if (next[k] == t) {
          next[k] += period[k];
        }
      }
    }
    if (count > limit) {
      break;
    }
  }
  return count;
}

}  // namespace dvs::fps
