#include "model/workload.h"

#include "util/error.h"

namespace dvs::model {

TruncatedNormalWorkload::TruncatedNormalWorkload(const TaskSet& set,
                                                 double sigma_divisor) {
  ACS_REQUIRE(sigma_divisor > 0.0, "sigma divisor must be positive");
  dists_.reserve(set.size());
  fixed_.resize(set.size(), 0.0);
  for (TaskIndex i = 0; i < set.size(); ++i) {
    const Task& t = set.task(i);
    const double span = t.wcec - t.bcec;
    if (span <= 0.0) {
      dists_.emplace_back(std::nullopt);
      fixed_[i] = t.wcec;
      continue;
    }
    dists_.emplace_back(
        stats::TruncatedNormal(t.acec, span / sigma_divisor, t.bcec, t.wcec));
  }
}

double TruncatedNormalWorkload::SampleCycles(TaskIndex task,
                                             stats::Rng& rng) const {
  ACS_REQUIRE(task < dists_.size(), "task index out of range");
  if (!dists_[task].has_value()) {
    return fixed_[task];
  }
  return dists_[task]->Sample(rng);
}

double TruncatedNormalWorkload::AnalyticMean(TaskIndex task) const {
  ACS_REQUIRE(task < dists_.size(), "task index out of range");
  if (!dists_[task].has_value()) {
    return fixed_[task];
  }
  return dists_[task]->Mean();
}

FixedWorkload::FixedWorkload(const TaskSet& set, FixedScenario scenario) {
  cycles_.reserve(set.size());
  for (TaskIndex i = 0; i < set.size(); ++i) {
    const Task& t = set.task(i);
    switch (scenario) {
      case FixedScenario::kBest:
        cycles_.push_back(t.bcec);
        break;
      case FixedScenario::kAverage:
        cycles_.push_back(t.acec);
        break;
      case FixedScenario::kWorst:
        cycles_.push_back(t.wcec);
        break;
    }
  }
}

double FixedWorkload::SampleCycles(TaskIndex task, stats::Rng&) const {
  ACS_REQUIRE(task < cycles_.size(), "task index out of range");
  return cycles_[task];
}

UniformWorkload::UniformWorkload(const TaskSet& set) {
  windows_.reserve(set.size());
  for (TaskIndex i = 0; i < set.size(); ++i) {
    const Task& t = set.task(i);
    windows_.emplace_back(t.bcec, t.wcec);
  }
}

double UniformWorkload::SampleCycles(TaskIndex task, stats::Rng& rng) const {
  ACS_REQUIRE(task < windows_.size(), "task index out of range");
  const auto [lo, hi] = windows_[task];
  if (hi <= lo) {
    return hi;
  }
  return rng.Uniform(lo, hi);
}

double RecordingSampler::SampleCycles(TaskIndex task, stats::Rng& rng) const {
  const double cycles = inner_->SampleCycles(task, rng);
  record_->push_back(RecordedDraw{task, cycles});
  return cycles;
}

double ReplaySampler::SampleCycles(TaskIndex task, stats::Rng&) const {
  ACS_CHECK(next_ < record_->size(),
            "replayed realisation ran out of recorded draws");
  const RecordedDraw& draw = (*record_)[next_++];
  ACS_CHECK(draw.task == task,
            "replayed realisation drew a different task than recorded");
  return draw.cycles;
}

void ReplaySampler::CheckFullyUsed() const {
  ACS_CHECK(next_ == record_->size(),
            "replayed realisation left recorded draws unused");
}

}  // namespace dvs::model
