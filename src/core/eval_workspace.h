// Per-thread evaluation workspace: the reusable state of the whole
// offline-solve + online-simulate hot path.
//
// Grid-scale experiments evaluate the same pipeline — FPS expansion, WCS /
// ACS NLP solves, Vmax-ASAP construction, greedy simulation — on thousands
// of cells.  Before this workspace existed every cell re-allocated the
// solver vectors, the objective scratch and the engine tables, and cells
// that shared a task set (sigma / workload-seed / partitioner axes) even
// re-ran the identical solves.  An EvalWorkspace owns all of that state:
//
//   solver()             SPG/ALM/L-BFGS scratch (opt/workspace.h)
//   objective_scratch()  EnergyObjective forward/reverse buffers
//   engine()             sim::Simulate tables, active set and result
//   realisation()        the shared workload draws of EvaluateMethods
//   Prepare(key, set)    per-task-set cache: the FPS expansion plus the
//                        lazily solved WCS / ACS / Vmax-ASAP results
//
// Ownership and thread affinity: one workspace per thread, period.  Nothing
// here is synchronised; runner::RunGrid keeps one per ThreadPool worker and
// mp::EvaluateFleet threads the current worker's workspace through every
// per-core solve.  Reuse never changes results: every consumer overwrites
// its buffers before reading, and a Prepare() cache hit returns solves that
// are bit-identical to what a fresh computation would produce (the solvers
// are deterministic functions of the task set, model and options — which is
// also why the 1-thread-vs-N-thread determinism tests stay exact even
// though thread count changes which worker's cache serves which cell).
#ifndef ACS_CORE_EVAL_WORKSPACE_H
#define ACS_CORE_EVAL_WORKSPACE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/formulation.h"
#include "core/scheduler.h"
#include "fps/expansion.h"
#include "model/task.h"
#include "opt/workspace.h"
#include "sim/engine.h"

namespace dvs::core {

class SolveStore;  // core/solve_store.h

/// Exact structural equality (names, periods, and bitwise-equal cycle
/// demands).  Prepare() trusts a cache entry only when this holds, so a key
/// collision across different grids degrades to a rebuild, never to a wrong
/// result.
bool SameTaskSet(const model::TaskSet& a, const model::TaskSet& b);

/// Exact (bitwise) equality of every solver-relevant field, including the
/// nested ALM/SPG options — the second half of Prepare()'s hit condition.
bool SameSchedulerOptions(const SchedulerOptions& a, const SchedulerOptions& b);

/// Derives the cache key of a task subset from its parent set's key and the
/// owned task indices (FNV-1a).  mp::EvaluateFleet keys per-core solve
/// caches with this, so two cells whose partitioners assign the same tasks
/// to some core share that core's WCS/ACS solves — regardless of which core
/// index carried them.
std::uint64_t SubsetKey(std::uint64_t base,
                        const std::vector<model::TaskIndex>& owned);

class EvalWorkspace {
 public:
  /// Cached per-task-set state.  Owns a copy of the set (the expansion
  /// points into it), the expansion itself, and the lazy solve cache that
  /// MethodContext fills on first use.  The solves depend on the DVS model
  /// and scheduler options as well as the set, so the entry records both
  /// and a hit requires them to match (model by identity, options by
  /// value) — sharing workspaces across grids that differ in either
  /// degrades to a rebuild, never to stale solves.  The model is held
  /// non-owning (like ExperimentGrid::dvs): it must outlive every workspace
  /// that cached solves under it, or a recycled address could masquerade as
  /// the original model.
  struct PreparedCell {
    PreparedCell(std::uint64_t key, model::TaskSet set,
                 const model::DvsModel& dvs, const SchedulerOptions& scheduler);

    std::uint64_t key;
    model::TaskSet set;
    const model::DvsModel* dvs;
    SchedulerOptions scheduler;
    fps::FullyPreemptiveSchedule fps;  // references `set`; do not move
    SolveCache solves;
  };

  EvalWorkspace() = default;
  EvalWorkspace(EvalWorkspace&&) = default;
  EvalWorkspace& operator=(EvalWorkspace&&) = default;

  opt::SolverWorkspace& solver() { return solver_; }
  ObjectiveScratch& objective_scratch() { return objective_scratch_; }
  sim::EngineWorkspace& engine() { return engine_; }
  /// The workload realisation core::EvaluateMethods records once per
  /// context and replays to every later arm.
  std::vector<model::RecordedDraw>& realisation() { return realisation_; }

  /// Returns the prepared state for (`key`, `set`, `dvs`, `scheduler`): a
  /// hit when the key matches, the sets are structurally identical, the
  /// model is the same object and the scheduler options are equal;
  /// otherwise a build that may evict the least-recently-used entry
  /// (invalidating references returned for it).  `key` is the caller's
  /// task-set identity — runner::RunGrid uses the grid SetIndex (so all
  /// cells of one set share the entry) and mp::EvaluateFleet uses
  /// SubsetKey per core.  A stale key whose inputs no longer match
  /// degrades to a rebuild, never a wrong hit.
  PreparedCell& Prepare(std::uint64_t key, const model::TaskSet& set,
                        const model::DvsModel& dvs,
                        const SchedulerOptions& scheduler);

  /// Prepare for the subset of `parent` owning tasks `owned` (the
  /// mp::EvaluateFleet per-core path).  Equivalent to
  /// Prepare(key, SubTaskSet(parent, owned), ...) but verifies a cache hit
  /// field-by-field against the parent set, so the steady-state hit path
  /// materialises no TaskSet at all.
  PreparedCell& PrepareSubset(std::uint64_t key, const model::TaskSet& parent,
                              const std::vector<model::TaskIndex>& owned,
                              const model::DvsModel& dvs,
                              const SchedulerOptions& scheduler);

  /// Attaches (or detaches, with nullptr) a persistent solve store.  Every
  /// Prepare() miss then pre-seeds its fresh entry from the store, and
  /// every eviction flows the entry's solves back into it.  Non-owning;
  /// the store must outlive the workspace's last Prepare/AbsorbInto call.
  /// Results are bit-identical with or without a store — restored solves
  /// verify exactly and anything rejected is simply re-solved.
  void set_solve_store(SolveStore* store) { store_ = store; }
  SolveStore* solve_store() const { return store_; }

  /// Flushes every resident entry's solves into `store` (end-of-run
  /// write-back companion; evicted entries were absorbed on the way out).
  void AbsorbInto(SolveStore& store) const;

  /// Byte budget of the prepared-cell cache (approximate resident bytes;
  /// see ApproxBytes).  Insert evicts LRU entries past the budget, always
  /// keeping at least the entry it just built.  Tests shrink this to force
  /// evictions; the default fits any shipped grid comfortably.
  void set_prepared_budget_bytes(std::size_t bytes) {
    prepared_budget_bytes_ = bytes;
  }
  std::size_t prepared_budget_bytes() const { return prepared_budget_bytes_; }

  /// Default byte budget of the prepared cache (256 MiB): planned solves
  /// and calibration draws accumulate per entry, so deep planning grids
  /// bound residency by bytes as well as by count.  Public so tooling
  /// (tools/cache_info) can flag entries that would overflow it.
  static constexpr std::size_t kDefaultPreparedBudgetBytes =
      256ull * 1024 * 1024;

  /// Deterministic size estimate of one cached entry: the task set, the
  /// expansion and every cached solve / calibration, counted by element
  /// size (never capacity, so the estimate is allocator-independent).
  static std::size_t ApproxBytes(const PreparedCell& cell);

 private:
  /// MRU depth: one multi-core cell touches up to `cores` entries and the
  /// reuse window spans the sibling cells of one task-set draw (the
  /// core-count x partitioner axes), so a few dozen entries cover it.
  static constexpr std::size_t kPreparedCapacity = 48;

  /// Moves a hit to the MRU front; returns nullptr on miss.
  PreparedCell* Find(std::uint64_t key, const model::DvsModel& dvs,
                     const SchedulerOptions& scheduler,
                     const std::function<bool(const model::TaskSet&)>& same);

  /// Inserts a fresh entry at the MRU front, evicting if at capacity.
  PreparedCell& Insert(std::uint64_t key, model::TaskSet set,
                       const model::DvsModel& dvs,
                       const SchedulerOptions& scheduler);

  /// Evicts LRU entries while over the count cap or the byte budget
  /// (keeping at least the MRU entry), absorbing each evictee into the
  /// attached store; refreshes the resident-bytes gauge.  An MRU entry
  /// alone bigger than the whole budget is exempt from the byte charge
  /// (counted by prepare.oversized_rejects): evicting everything else
  /// could never pay for it, so the smaller entries stay resident.
  void EnforceBudget();

  opt::SolverWorkspace solver_;
  ObjectiveScratch objective_scratch_;
  sim::EngineWorkspace engine_;
  std::vector<model::RecordedDraw> realisation_;
  std::vector<std::unique_ptr<PreparedCell>> prepared_;  // MRU order
  std::vector<model::TaskIndex> owned_scratch_;  // PrepareSubset sort buffer
  SolveStore* store_ = nullptr;                  // non-owning, may be null
  std::size_t prepared_budget_bytes_ = kDefaultPreparedBudgetBytes;
};

}  // namespace dvs::core

#endif  // ACS_CORE_EVAL_WORKSPACE_H
