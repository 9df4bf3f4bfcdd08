#include "core/eval_workspace.h"

#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "util/error.h"

namespace dvs::core {

EvalWorkspace::PreparedCell::PreparedCell(std::uint64_t content_key,
                                          model::TaskSet set,
                                          ModelDescriptor model,
                                          const SchedulerOptions& scheduler)
    : content_key(content_key),
      set(std::move(set)),
      model(std::move(model)),
      scheduler(scheduler),
      fps(this->set) {}

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
  std::size_t bytes = sizeof(PreparedCell) + VecBytes(cell.model.params);
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
      store_->Absorb(MakeStoredCell(victim.set, victim.model, victim.scheduler,
                                    victim.solves));
    }
    prepared_.pop_back();
    obs::Count(obs::metric::kPrepareEvictions);
  }
  obs::SetGauge(obs::metric::kPreparedBytes, static_cast<double>(total));
}

void EvalWorkspace::AbsorbInto(SolveStore& store) const {
  for (const auto& entry : prepared_) {
    store.Absorb(MakeStoredCell(entry->set, entry->model, entry->scheduler,
                                entry->solves));
  }
}

EvalWorkspace::PreparedCell& EvalWorkspace::Prepare(
    const model::TaskSet& set, const model::DvsModel& dvs,
    const SchedulerOptions& scheduler) {
  ModelDescriptor model = DescribeModel(dvs);
  const std::uint64_t key = SolveStoreEntryKey(set, model, scheduler);
  for (std::size_t i = 0; i < prepared_.size(); ++i) {
    const PreparedCell& cached = *prepared_[i];
    if (cached.content_key == key &&
        SameSolveInputs(cached.set, cached.model, cached.scheduler, set,
                        model, scheduler)) {
      if (i != 0) {  // move to MRU front
        std::unique_ptr<PreparedCell> hit = std::move(prepared_[i]);
        prepared_.erase(prepared_.begin() + static_cast<std::ptrdiff_t>(i));
        prepared_.insert(prepared_.begin(), std::move(hit));
      }
      // Scheduling-observing counter: which worker's cache holds the set
      // depends on cell assignment, so hit/miss splits vary with the
      // thread count — only the hits+misses total is invariant.
      obs::Count(obs::metric::kPrepareHits);
      return *prepared_.front();
    }
  }

  obs::Count(obs::metric::kPrepareMisses);
  prepared_.insert(prepared_.begin(),
                   std::make_unique<PreparedCell>(key, set, std::move(model),
                                                  scheduler));
  PreparedCell& entry = *prepared_.front();
  if (store_ != nullptr) {
    if (std::optional<StoredCell> stored =
            store_->Load(key, entry.set, entry.model, scheduler)) {
      try {
        RestoreSolveCache(*stored, entry.fps, entry.solves);
      } catch (const util::Error&) {
        // The stored schedules do not fit this expansion (a colliding key
        // or a stale file): drop the partial restore and re-solve.
        entry.solves = SolveCache{};
        obs::Count(obs::metric::kPersistRejects);
      }
    }
  }
  EnforceBudget();  // never evicts the MRU entry just built
  return entry;
}

}  // namespace dvs::core
