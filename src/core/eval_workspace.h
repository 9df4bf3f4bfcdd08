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
//   solver()             SPG/ALM scratch (opt/workspace.h)
//   objective_scratch()  EnergyObjective forward/reverse buffers
//   engine()             sim::Simulate tables, active set and result
//   realisation()        the shared workload draws of EvaluateMethods
//   Prepare(set, ...)    per-task-set cache: the FPS expansion plus the
//                        lazily solved WCS / ACS / Vmax-ASAP results
//
// Ownership and thread affinity: one workspace per thread, period.  Nothing
// here is synchronised; runner::RunGrid keeps one per ThreadPool worker and
// mp::EvaluateFleet threads the current worker's workspace through every
// per-core solve.  Reuse never changes results: every consumer overwrites
// its buffers before reading, and a Prepare() cache hit returns solves that
// are bit-identical to what a fresh computation would produce (the solvers
// are deterministic functions of the task set and model — which is
// also why the 1-thread-vs-N-thread determinism tests stay exact even
// though thread count changes which worker's cache serves which cell).
//
// Identity: entries are found by content, with the key and exact-match
// predicate of the persistent store (core/solve_store.h:
// SolveStoreEntryKey, SameSolveInputs).  An entry records the model's
// ModelDescriptor, never its address, so two model objects with equal
// parameters share an entry and no model has to outlive the workspace.
#ifndef ACS_CORE_EVAL_WORKSPACE_H
#define ACS_CORE_EVAL_WORKSPACE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/formulation.h"
#include "core/scheduler.h"
#include "core/solve_store.h"
#include "fps/expansion.h"
#include "model/task.h"
#include "opt/workspace.h"
#include "sim/engine.h"

namespace dvs::core {

class EvalWorkspace {
 public:
  /// Cached per-task-set state.  Owns a copy of the set (the expansion
  /// points into it), the expansion itself, and the lazy solve cache that
  /// MethodContext fills on first use.  The solves depend on the DVS model
  /// as well as the set, so the entry records both by content:
  /// `content_key` is their SolveStoreEntryKey.
  struct PreparedCell {
    PreparedCell(std::uint64_t content_key, model::TaskSet set,
                 ModelDescriptor model);

    std::uint64_t content_key;
    model::TaskSet set;
    ModelDescriptor model;
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

  /// Returns the prepared state for (`set`, `dvs`): a hit when a resident
  /// entry has the same content key and SameSolveInputs holds; otherwise a
  /// build — pre-seeded from the attached store under the same key — that
  /// may evict the least-recently-used entry (invalidating references
  /// returned for it).  Throws util::InvalidArgumentError for a model
  /// core::PlanningModel rejects.
  PreparedCell& Prepare(const model::TaskSet& set, const model::DvsModel& dvs);

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
  SolveStore* store_ = nullptr;  // non-owning, may be null
  std::size_t prepared_budget_bytes_ = kDefaultPreparedBudgetBytes;
};

}  // namespace dvs::core

#endif  // ACS_CORE_EVAL_WORKSPACE_H
