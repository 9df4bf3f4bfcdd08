#include "core/eval_workspace.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/solve_store.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace dvs::core {

bool SameTaskSet(const model::TaskSet& a, const model::TaskSet& b) {
  if (a.size() != b.size() || a.hyper_period() != b.hyper_period()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const model::Task& ta = a.task(i);
    const model::Task& tb = b.task(i);
    if (ta.name != tb.name || ta.period != tb.period || ta.wcec != tb.wcec ||
        ta.acec != tb.acec || ta.bcec != tb.bcec) {
      return false;
    }
  }
  return true;
}

bool SameSchedulerOptions(const SchedulerOptions& a, const SchedulerOptions& b) {
  const opt::AlmOptions& x = a.alm;
  const opt::AlmOptions& y = b.alm;
  const opt::SpgOptions& p = x.inner;
  const opt::SpgOptions& q = y.inner;
  return x.max_outer == y.max_outer &&
         x.feasibility_tol == y.feasibility_tol &&
         x.initial_penalty == y.initial_penalty &&
         x.penalty_growth == y.penalty_growth &&
         x.max_penalty == y.max_penalty &&
         x.violation_shrink == y.violation_shrink &&
         x.inner_tol_start == y.inner_tol_start &&
         p.max_iterations == q.max_iterations && p.tolerance == q.tolerance &&
         p.history == q.history && p.armijo_c == q.armijo_c &&
         p.step_min == q.step_min && p.step_max == q.step_max &&
         p.backtrack == q.backtrack && p.max_backtracks == q.max_backtracks;
}

std::uint64_t SubsetKey(std::uint64_t base,
                        const std::vector<model::TaskIndex>& owned) {
  // FNV-1a over the base key and the owned indices.
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  };
  mix(base);
  for (model::TaskIndex task : owned) {
    mix(static_cast<std::uint64_t>(task) + 1);
  }
  return hash;
}

EvalWorkspace::PreparedCell::PreparedCell(std::uint64_t key,
                                          model::TaskSet set,
                                          const model::DvsModel& dvs,
                                          const SchedulerOptions& scheduler)
    : key(key),
      set(std::move(set)),
      dvs(&dvs),
      scheduler(scheduler),
      fps(this->set) {}

EvalWorkspace::PreparedCell* EvalWorkspace::Find(
    std::uint64_t key, const model::DvsModel& dvs,
    const SchedulerOptions& scheduler,
    const std::function<bool(const model::TaskSet&)>& same) {
  for (std::size_t i = 0; i < prepared_.size(); ++i) {
    if (prepared_[i]->key == key && prepared_[i]->dvs == &dvs &&
        SameSchedulerOptions(prepared_[i]->scheduler, scheduler) &&
        same(prepared_[i]->set)) {
      if (i != 0) {  // move to MRU front
        std::unique_ptr<PreparedCell> hit = std::move(prepared_[i]);
        prepared_.erase(prepared_.begin() + static_cast<std::ptrdiff_t>(i));
        prepared_.insert(prepared_.begin(), std::move(hit));
      }
      // Scheduling-observing counter: which worker's cache holds the set
      // depends on cell assignment, so hit/miss splits vary with the
      // thread count — only the hits+misses total is invariant.
      obs::Count(obs::metric::kPrepareHits);
      return prepared_.front().get();
    }
  }
  return nullptr;
}

namespace {

std::size_t VecBytes(const std::vector<double>& values) {
  return values.size() * sizeof(double);
}

std::size_t MatBytes(const std::vector<std::vector<double>>& rows) {
  std::size_t bytes = rows.size() * sizeof(std::vector<double>);
  for (const std::vector<double>& row : rows) {
    bytes += VecBytes(row);
  }
  return bytes;
}

std::size_t PointBytes(const PlanningPoint& point) {
  return VecBytes(point.cycles) + MatBytes(point.mixture);
}

std::size_t ResultBytes(const ScheduleResult& result) {
  return sizeof(ScheduleResult) + VecBytes(result.schedule.end_times()) +
         VecBytes(result.schedule.worst_budgets()) +
         VecBytes(result.alm.multipliers);
}

}  // namespace

std::size_t EvalWorkspace::ApproxBytes(const PreparedCell& cell) {
  std::size_t bytes = sizeof(PreparedCell);
  for (const model::Task& task : cell.set.tasks()) {
    bytes += sizeof(model::Task) + task.name.size();
  }
  // The expansion's per-sub-instance records (segments, chain links,
  // instance maps) dominate its footprint; ~96 bytes each is the measured
  // order of magnitude and only relative sizes matter for eviction.
  bytes += cell.fps.sub_count() * 96;
  const SolveCache& solves = cell.solves;
  if (solves.wcs.has_value()) {
    bytes += ResultBytes(*solves.wcs);
  }
  if (solves.acs.has_value()) {
    bytes += ResultBytes(*solves.acs);
  }
  if (solves.vmax_asap.has_value()) {
    bytes += VecBytes(solves.vmax_asap->end_times()) +
             VecBytes(solves.vmax_asap->worst_budgets());
  }
  for (const auto& planned : solves.planned) {
    bytes += sizeof(SolveCache::PlannedSolve) + PointBytes(planned->planning) +
             ResultBytes(planned->result);
    for (const PlanningPoint& link : planned->chain) {
      bytes += PointBytes(link);
    }
  }
  for (const auto& entry : solves.calibrations) {
    bytes += sizeof(SolveCache::CalibrationEntry) +
             entry->persist_key.size() + VecBytes(entry->calibration.mean) +
             VecBytes(entry->calibration.stddev) +
             MatBytes(entry->calibration.draws) +
             MatBytes(entry->calibration.sorted);
  }
  return bytes;
}

void EvalWorkspace::EnforceBudget() {
  std::size_t total = 0;
  for (const auto& entry : prepared_) {
    total += ApproxBytes(*entry);
  }
  // An MRU entry bigger than the whole budget can never be paid for by
  // eviction: charging it would evict every LRU entry (futile — the budget
  // stays blown) and, were the MRU itself evictable, loop forever admitting
  // and ejecting it.  Treat it as a transient over-budget resident instead:
  // its bytes don't count against the budget, so the smaller entries it
  // would have pointlessly displaced stay cached.  The gauge still reports
  // the physical total.
  std::size_t charged = total;
  if (!prepared_.empty()) {
    const std::size_t mru_bytes = ApproxBytes(*prepared_.front());
    if (mru_bytes > prepared_budget_bytes_) {
      charged = total - mru_bytes;
      obs::Count(obs::metric::kPrepareOversized);
    }
  }
  while (prepared_.size() > 1 &&
         (prepared_.size() > kPreparedCapacity ||
          charged > prepared_budget_bytes_)) {
    const PreparedCell& victim = *prepared_.back();
    const std::size_t victim_bytes = ApproxBytes(victim);
    total -= victim_bytes;
    charged -= victim_bytes;
    if (store_ != nullptr) {
      const ModelDescriptor descriptor = DescribeModel(*victim.dvs);
      if (descriptor.Persistable()) {
        store_->Absorb(MakeStoredCell(victim.set, descriptor, victim.scheduler,
                                      victim.solves));
      }
    }
    prepared_.pop_back();
    obs::Count(obs::metric::kPrepareEvictions);
  }
  obs::SetGauge(obs::metric::kPreparedBytes, static_cast<double>(total));
}

void EvalWorkspace::AbsorbInto(SolveStore& store) const {
  for (const auto& entry : prepared_) {
    const ModelDescriptor descriptor = DescribeModel(*entry->dvs);
    if (!descriptor.Persistable()) {
      continue;
    }
    store.Absorb(MakeStoredCell(entry->set, descriptor, entry->scheduler,
                                entry->solves));
  }
}

EvalWorkspace::PreparedCell& EvalWorkspace::Insert(
    std::uint64_t key, model::TaskSet set, const model::DvsModel& dvs,
    const SchedulerOptions& scheduler) {
  obs::Count(obs::metric::kPrepareMisses);
  prepared_.insert(prepared_.begin(),
                   std::make_unique<PreparedCell>(key, std::move(set), dvs,
                                                  scheduler));
  PreparedCell& entry = *prepared_.front();
  if (store_ != nullptr) {
    const ModelDescriptor descriptor = DescribeModel(dvs);
    if (descriptor.Persistable()) {
      if (std::optional<StoredCell> stored =
              store_->Load(entry.set, descriptor, scheduler)) {
        try {
          RestoreSolveCache(*stored, entry.fps, entry.solves);
        } catch (const util::Error&) {
          // The stored schedules do not fit this expansion (a colliding
          // key or a stale file): drop the partial restore and re-solve.
          entry.solves = SolveCache{};
          obs::Count(obs::metric::kPersistRejects);
        }
      }
    }
  }
  EnforceBudget();  // never evicts the MRU entry just built
  return entry;
}

EvalWorkspace::PreparedCell& EvalWorkspace::Prepare(
    std::uint64_t key, const model::TaskSet& set, const model::DvsModel& dvs,
    const SchedulerOptions& scheduler) {
  if (PreparedCell* hit = Find(key, dvs, scheduler,
                               [&set](const model::TaskSet& cached) {
                                 return SameTaskSet(cached, set);
                               })) {
    return *hit;
  }
  return Insert(key, set, dvs, scheduler);
}

EvalWorkspace::PreparedCell& EvalWorkspace::PrepareSubset(
    std::uint64_t key, const model::TaskSet& parent,
    const std::vector<model::TaskIndex>& owned, const model::DvsModel& dvs,
    const SchedulerOptions& scheduler) {
  // The sorted owned indices (SubTaskSet's order), in a reused buffer so
  // the hit path allocates nothing.
  std::vector<model::TaskIndex>& sorted = owned_scratch_;
  sorted.assign(owned.begin(), owned.end());
  std::sort(sorted.begin(), sorted.end());

  // Field-by-field equivalent of SameTaskSet(cached, SubTaskSet(parent,
  // owned)) without building the subset: SubTaskSet copies the parent's
  // Task records verbatim in sorted-index order, and the hyper-period is
  // derived from the periods, so matching tasks imply matching sets.
  const auto same_subset = [&](const model::TaskSet& cached) {
    if (cached.size() != sorted.size()) {
      return false;
    }
    for (std::size_t j = 0; j < sorted.size(); ++j) {
      const model::Task& a = cached.task(j);
      const model::Task& b = parent.task(sorted[j]);
      if (a.name != b.name || a.period != b.period || a.wcec != b.wcec ||
          a.acec != b.acec || a.bcec != b.bcec) {
        return false;
      }
    }
    return true;
  };
  if (PreparedCell* hit = Find(key, dvs, scheduler, same_subset)) {
    return *hit;
  }
  // Miss: materialise the subset — verbatim parent Task records in sorted
  // order, exactly what mp::SubTaskSet builds (core cannot call it: mp sits
  // above core in the layering).
  std::vector<model::Task> tasks;
  tasks.reserve(sorted.size());
  for (model::TaskIndex index : sorted) {
    tasks.push_back(parent.task(index));
  }
  return Insert(key, model::TaskSet(std::move(tasks)), dvs, scheduler);
}

}  // namespace dvs::core
