#include "runner/thread_pool.h"

#include "util/error.h"

namespace dvs::runner {

int ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads > 0 ? threads : HardwareThreads()) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = epoch_;
    }
    DrainFamilies(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_active_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::RecordError(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_ == nullptr || index < error_index_) {
    error_ = std::current_exception();
    error_index_ = index;
  }
}

void ThreadPool::DrainFamilies(std::size_t worker) {
  for (;;) {
    std::size_t family = kNoFamily;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (!queues_[worker].empty()) {
        // Own families in enqueue (= ascending id) order: the owner walks
        // its window front-to-back, which is what makes one worker's run
        // identical to the serial cell order.
        family = queues_[worker].front();
        queues_[worker].pop_front();
      } else {
        // Steal a whole family from the back of the most-loaded queue —
        // the work furthest from the victim's current locality window.
        std::size_t victim = kNoFamily;
        std::size_t victim_load = 0;
        for (std::size_t w = 0; w < queues_.size(); ++w) {
          if (queues_[w].size() > victim_load) {
            victim_load = queues_[w].size();
            victim = w;
          }
        }
        if (victim != kNoFamily) {
          family = queues_[victim].back();
          queues_[victim].pop_back();
          ++steals_;
        }
      }
    }
    if (family == kNoFamily) {
      return;  // every queue is empty; in-flight families finish elsewhere
    }
    const auto [begin, end] = (*families_)[family];
    for (std::size_t index = begin; index < end; ++index) {
      try {
        (*fn_)(worker, index);
      } catch (...) {
        RecordError(index);
      }
    }
    family_cells_[worker] += end - begin;
  }
}

FamilyStats ThreadPool::ParallelForFamilies(
    const std::vector<std::pair<std::size_t, std::size_t>>& families,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  FamilyStats stats;
  stats.cells_per_worker.assign(static_cast<std::size_t>(threads_), 0);
  if (families.empty()) {
    return stats;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ACS_CHECK(fn_ == nullptr, "nested ParallelForFamilies on one ThreadPool");
    fn_ = &fn;
    families_ = &families;
    queues_.assign(static_cast<std::size_t>(threads_), {});
    // Round-robin owners, ascending family id per queue: owners drain
    // front-to-back in id order, thieves take from the back.
    for (std::size_t f = 0; f < families.size(); ++f) {
      queues_[f % queues_.size()].push_back(f);
    }
    steals_ = 0;
    family_cells_.assign(static_cast<std::size_t>(threads_), 0);
    error_ = nullptr;
    error_index_ = 0;
    workers_active_ = workers_.size();
    ++epoch_;
  }
  start_cv_.notify_all();
  DrainFamilies(0);  // the calling thread is worker 0

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  fn_ = nullptr;
  families_ = nullptr;
  stats.steals = steals_;
  stats.cells_per_worker = family_cells_;
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
  return stats;
}

}  // namespace dvs::runner
