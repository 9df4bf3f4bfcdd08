// Cache-affinity thread pool for embarrassingly parallel experiment grids.
//
// ParallelForFamilies hands out whole index ranges ("families", one per
// task-set draw — see runner/run_grid.h) round-robin: each worker drains
// its own queue in ascending order and an idle worker steals a whole
// family from the most-loaded queue, so the tail stays short when cell
// costs vary wildly while a family's cells stay on one worker's caches.  The calling thread
// participates as worker 0, so ThreadPool(1) spawns no threads and runs
// everything inline — the serial baseline that parallel runs must match
// bit-for-bit (see runner/run_grid.h).
#ifndef ACS_RUNNER_THREAD_POOL_H
#define ACS_RUNNER_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dvs::runner {

/// What a ParallelForFamilies run observed about its own scheduling.
/// Observation-only — results never depend on it (cells are pure functions
/// of their index) — and, like the prepare hit/miss split, the numbers
/// legitimately vary with thread count and timing.
struct FamilyStats {
  /// Families executed by a worker other than their assigned owner.
  std::size_t steals = 0;
  /// Cells each worker actually executed (indexed by worker).
  std::vector<std::size_t> cells_per_worker;
};

class ThreadPool {
 public:
  /// `threads` is the total worker count including the calling thread;
  /// <= 0 selects HardwareThreads().
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return threads_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

  /// Runs fn(worker, index) for every index of every family and blocks
  /// until all complete.  `families[f]` is a [begin, end) index range that
  /// starts on worker f % size()'s queue (its owner).  `worker`
  /// is the executing worker's index (0 = the calling thread, 1..size()-1
  /// = pool threads) — the hook for per-worker state such as
  /// core::EvalWorkspace; which worker runs which index is
  /// nondeterministic, so callers must not let it influence results.  Each
  /// worker drains its own queue front-to-back — families are enqueued in
  /// ascending id order, so an owner visits its cells in ascending index
  /// order and a 1-thread pool reproduces the serial order exactly — and an
  /// idle worker steals a whole family from the BACK of the most-loaded
  /// queue (ties: lowest victim index), keeping the steal at the far end of
  /// the victim's locality window.  Exceptions thrown by `fn` are captured;
  /// the one from the lowest index is rethrown afterwards, so the surfaced
  /// error does not depend on thread interleaving.  Not re-entrant: one
  /// run per pool at a time.  Returns what the run observed about its own
  /// scheduling.
  FamilyStats ParallelForFamilies(
      const std::vector<std::pair<std::size_t, std::size_t>>& families,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  static constexpr std::size_t kNoFamily = static_cast<std::size_t>(-1);

  void WorkerLoop(std::size_t worker);
  void DrainFamilies(std::size_t worker);
  void RecordError(std::size_t index);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  std::uint64_t epoch_ = 0;  // bumped once per ParallelForFamilies
  std::size_t workers_active_ = 0;

  // Current job (valid while a ParallelForFamilies is in flight).
  const std::function<void(std::size_t, std::size_t)>* fn_ = nullptr;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;

  const std::vector<std::pair<std::size_t, std::size_t>>* families_ = nullptr;
  std::mutex queue_mutex_;  // guards queues_ and steals_
  std::vector<std::deque<std::size_t>> queues_;  // per-worker family ids
  std::size_t steals_ = 0;
  std::vector<std::size_t> family_cells_;  // per-worker executed cells
};

}  // namespace dvs::runner

#endif  // ACS_RUNNER_THREAD_POOL_H
