// Cache-affinity cell scheduling contract (ThreadPool::ParallelForFamilies
// + RunGrid).
//
// The pool starts family f on worker f % size() and an idle worker steals a
// whole family from the back of the most-loaded queue: a forced steal runs
// every cell exactly once and surfaces the stolen family's error.  RunGrid:
// results are bit-identical across 1 vs 4 threads — the scheduling can move
// work between workers but never a bit in the results.
#include "runner/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "model/power_model.h"
#include "runner/experiment_grid.h"
#include "runner/run_grid.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::runner {
namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// A grid with several distinct-cost families: two random sources of
/// different task counts plus sigma/seed/scenario inner axes.
ExperimentGrid AffinityGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions small;
  small.num_tasks = 2;
  small.bcec_wcec_ratio = 0.3;
  small.max_sub_instances = 24;
  workload::RandomTaskSetOptions large = small;
  large.num_tasks = 4;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("small", small, 2),
                  RandomSource("large", large, 2)};
  grid.sigma_divisors = {6.0, 10.0};
  grid.workload_seeds = {0, 1};
  grid.methods = {"acs", "wcs"};
  grid.hyper_periods = 8;
  grid.master_seed = 21;
  return grid;
}

/// Four two-cell families on a 2-worker pool.  Round-robin hands worker 0
/// families 0 and 2 and worker 1 families 1 and 3.  Worker 1's first cell
/// waits until worker 0 has started cell 0 (otherwise worker 1 could drain
/// its queue and steal families 2 and 0 before worker 0 ran at all), and
/// worker 0's first cell blocks until worker 1 has drained its own queue
/// and started family 2, which it can only have taken off the back of
/// worker 0's queue — so every run makes exactly that one steal.  `on_cell` runs after the
/// bookkeeping for every cell; `runs` counts executions per cell.
FamilyStats RunForcedSteal(
    std::vector<std::atomic<int>>& runs,
    const std::function<void(std::size_t, std::size_t)>& on_cell) {
  constexpr std::size_t kCellsPerFamily = 2;
  constexpr std::size_t kStolenFirstCell = 2 * kCellsPerFamily;
  std::vector<std::pair<std::size_t, std::size_t>> families;
  for (std::size_t f = 0; f < 4; ++f) {
    families.emplace_back(f * kCellsPerFamily, (f + 1) * kCellsPerFamily);
  }
  runs = std::vector<std::atomic<int>>(families.size() * kCellsPerFamily);

  std::mutex mutex;
  std::condition_variable stolen_cv;
  bool stolen = false;
  bool owner_started = false;
  ThreadPool pool(2);
  return pool.ParallelForFamilies(
      families, [&](std::size_t worker, std::size_t cell) {
        runs[cell].fetch_add(1, std::memory_order_relaxed);
        if (cell == 0) {
          // Bounded waits: a pool that never steals fails this expectation
          // instead of hanging the test.
          std::unique_lock<std::mutex> lock(mutex);
          owner_started = true;
          stolen_cv.notify_all();
          EXPECT_TRUE(stolen_cv.wait_for(lock, std::chrono::seconds(30),
                                         [&] { return stolen; }))
              << "worker 1 never stole family 2";
        } else if (cell == kCellsPerFamily) {
          std::unique_lock<std::mutex> lock(mutex);
          EXPECT_TRUE(stolen_cv.wait_for(lock, std::chrono::seconds(30),
                                         [&] { return owner_started; }))
              << "worker 0 never started cell 0";
        } else if (cell == kStolenFirstCell) {
          EXPECT_EQ(worker, 1u);
          {
            const std::lock_guard<std::mutex> lock(mutex);
            stolen = true;
          }
          stolen_cv.notify_all();
        }
        on_cell(worker, cell);
      });
}

TEST(ThreadPoolFamilies, IdleWorkerStealsFromABlockedOwner) {
  std::vector<std::atomic<int>> runs;
  const FamilyStats stats =
      RunForcedSteal(runs, [](std::size_t, std::size_t) {});

  for (std::size_t cell = 0; cell < runs.size(); ++cell) {
    EXPECT_EQ(runs[cell].load(), 1) << "cell " << cell;
  }
  EXPECT_GE(stats.steals, 1u);
  // Worker 0 ran only its first family; worker 1 ran its own two and the
  // stolen one.
  EXPECT_EQ(stats.cells_per_worker, (std::vector<std::size_t>{2, 6}));
}

TEST(ThreadPoolFamilies, ErrorsPropagateFromStolenFamilies) {
  std::vector<std::atomic<int>> runs;
  EXPECT_THROW(RunForcedSteal(runs,
                              [](std::size_t, std::size_t cell) {
                                if (cell == 4) {  // family 2, stolen
                                  throw util::Error("boom");
                                }
                              }),
               util::Error);
  for (std::size_t cell = 0; cell < runs.size(); ++cell) {
    EXPECT_EQ(runs[cell].load(), 1) << "cell " << cell;
  }
}

void ExpectBitIdentical(const GridResult& a, const GridResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.failed_cells, b.failed_cells);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& ca = a.cells[i];
    const CellResult& cb = b.cells[i];
    EXPECT_EQ(ca.error, cb.error);
    EXPECT_EQ(ca.hyper_period, cb.hyper_period);
    ASSERT_EQ(ca.outcomes.size(), cb.outcomes.size());
    for (std::size_t m = 0; m < ca.outcomes.size(); ++m) {
      EXPECT_EQ(Bits(ca.outcomes[m].measured_energy),
                Bits(cb.outcomes[m].measured_energy))
          << "cell " << i << " method " << m;
      EXPECT_EQ(Bits(ca.outcomes[m].predicted_energy),
                Bits(cb.outcomes[m].predicted_energy));
      EXPECT_EQ(ca.outcomes[m].deadline_misses, cb.outcomes[m].deadline_misses);
      EXPECT_EQ(ca.outcomes[m].voltage_switches,
                cb.outcomes[m].voltage_switches);
      EXPECT_EQ(ca.outcomes[m].solver_evaluations,
                cb.outcomes[m].solver_evaluations);
    }
  }
}

TEST(AffinityDeterminism, OneVsFourThreadsBitIdentical) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = AffinityGrid(cpu);

  const auto run = [&](int threads) {
    RunOptions options;
    options.threads = threads;
    return RunGrid(grid, options);
  };

  ExpectBitIdentical(run(1), run(4));
}

}  // namespace
}  // namespace dvs::runner
