#include "runner/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dvs::runner {
namespace {

using Families = std::vector<std::pair<std::size_t, std::size_t>>;

/// [0, n) cut into families of `width` indices (the last one may be
/// shorter).
Families SplitRange(std::size_t n, std::size_t width) {
  Families families;
  for (std::size_t begin = 0; begin < n; begin += width) {
    families.emplace_back(begin, std::min(n, begin + width));
  }
  return families;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);

  constexpr std::size_t kN = 1000;
  const Families families = SplitRange(kN, 7);
  std::vector<std::atomic<int>> hits(kN);
  const FamilyStats stats = pool.ParallelForFamilies(
      families, [&](std::size_t, std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  std::size_t executed = 0;
  for (const std::size_t cells : stats.cells_per_worker) {
    executed += cells;
  }
  EXPECT_EQ(executed, kN);
}

TEST(ThreadPool, SingleThreadRunsInlineInAscendingOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);

  const std::thread::id caller = std::this_thread::get_id();
  const Families families = SplitRange(64, 5);
  std::vector<std::size_t> order;
  pool.ParallelForFamilies(families, [&](std::size_t worker, std::size_t i) {
    // No worker threads exist, so everything runs on the calling thread and
    // the unsynchronised vector is safe.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPool, DefaultsToHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::HardwareThreads());
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  const FamilyStats stats =
      pool.ParallelForFamilies({}, [&](std::size_t, std::size_t) {
        FAIL() << "must not be called";
      });
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.cells_per_worker, std::vector<std::size_t>(2, 0));
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Several indices throw, in families owned by different workers; the
  // pool must deterministically surface the one from the lowest index
  // regardless of interleaving.
  const Families families = SplitRange(100, 3);
  const auto run = [&] {
    pool.ParallelForFamilies(families, [](std::size_t, std::size_t i) {
      if (i == 97 || i == 13 || i == 55) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  try {
    run();
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 13");
  }
}

TEST(ThreadPool, SurvivesExceptionAndRunsAgain) {
  ThreadPool pool(3);
  const Families families = SplitRange(10, 2);
  EXPECT_THROW(pool.ParallelForFamilies(families,
                                        [](std::size_t, std::size_t) {
                                          throw std::runtime_error("x");
                                        }),
               std::runtime_error);

  std::atomic<int> count{0};
  pool.ParallelForFamilies(
      families, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  const Families families = SplitRange(16, 3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelForFamilies(
        families, [&](std::size_t, std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 136u);
  }
}

}  // namespace
}  // namespace dvs::runner
