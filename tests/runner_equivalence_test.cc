// Paired-draw equivalence: the neighbor warm-start path is allowed to
// change individual solver trajectories, but on paired draws — identical
// task set, scenario, seed and grid coordinates — the *results* it
// delivers must agree with the cold path to within noise.  The test runs
// one grid twice, toggling exactly the warm-start knob, and compares the
// per-row measured fleet energies pairwise: the mean relative difference
// must be a fraction of a percent and no single cell may drift
// materially, on 8 paired cells.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "runner/csv_sink.h"
#include "runner/experiment_grid.h"
#include "runner/run_grid.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::runner {
namespace {

std::string FreshPath(const std::string& stem) {
  return ::testing::TempDir() + stem + "." +
         std::to_string(static_cast<long long>(::getpid())) + ".csv";
}

/// Runs `grid` serially into a temp CSV and returns the measured_energy
/// column, one entry per row in serial row order (the pairing key).
std::vector<double> MeasuredEnergies(const ExperimentGrid& grid,
                                     bool scenario_column,
                                     const std::string& stem) {
  const std::string path = FreshPath(stem);
  {
    CsvSink sink(path, scenario_column, /*solver_stats_columns=*/false);
    RunOptions options;
    options.threads = 1;
    options.sink = &sink;
    const GridResult result = RunGrid(grid, options);
    EXPECT_EQ(result.failed_cells, 0u);
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  int column = -1;
  {
    std::istringstream header(line);
    std::string name;
    for (int i = 0; std::getline(header, name, ','); ++i) {
      if (name == "measured_energy") {
        column = i;
      }
    }
  }
  EXPECT_GE(column, 0) << "no measured_energy column in " << line;
  std::vector<double> energies;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string field;
    for (int i = 0; std::getline(row, field, ','); ++i) {
      if (i == column) {
        energies.push_back(std::stod(field));
      }
    }
  }
  std::remove(path.c_str());
  return energies;
}

/// Paired comparison: same row order on both sides.  `max_row_worse`
/// bounds how much any single cell may REGRESS (variant > reference) and
/// `max_mean_worse` bounds the grid-level mean — the "statistical noise"
/// bar.  `max_row_better` bounds improvement per cell; pass +inf when the
/// variant is genuinely allowed to land on better optima (a warm-start
/// continuation escaping the cold solve's local point is a win, not a
/// drift — the prop invariant suite separately bounds energies below by
/// the Vmin floor, so "too good" cannot hide a broken simulation).
void ExpectPairedEquivalent(const std::vector<double>& reference,
                            const std::vector<double>& variant,
                            double max_row_worse, double max_row_better,
                            double max_mean_worse) {
  ASSERT_EQ(reference.size(), variant.size());
  ASSERT_GE(reference.size(), 8u);
  double ref_sum = 0.0;
  double var_sum = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ref_sum += reference[i];
    var_sum += variant[i];
    const double scale = std::max(std::fabs(reference[i]), 1e-12);
    EXPECT_LE(variant[i], reference[i] + max_row_worse * scale)
        << "paired row " << i << " regressed";
    EXPECT_GE(variant[i], reference[i] - max_row_better * scale)
        << "paired row " << i << " drifted implausibly low";
  }
  const double mean_scale = std::max(std::fabs(ref_sum), 1e-12);
  EXPECT_LE(var_sum, ref_sum + max_mean_worse * mean_scale)
      << "grid mean energy regressed";
}

TEST(RunnerEquivalence, NeighborWarmStartAgreesWithinNoiseOnPairedSets) {
  const model::LinearDvsModel dvs = workload::DefaultModel();
  // The planning arm on a 2-point sigma axis: with kNeighbor the second
  // sigma actually chains (primal + dual continuation), so this compares
  // chained against cold solves of the same cells.
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-2", gen, 4)};
  grid.scenarios = {"iid-normal"};
  grid.sigma_divisors = {5.0, 8.0};
  grid.methods = {"acs-scenario"};
  grid.baseline = "acs-scenario";
  grid.planning.calibration_samples = 64;
  grid.hyper_periods = 10;
  grid.master_seed = 11;

  grid.warm_start = core::WarmStartPolicy::kOff;
  const std::vector<double> cold =
      MeasuredEnergies(grid, /*scenario_column=*/false, "equiv_cold");
  grid.warm_start = core::WarmStartPolicy::kNeighbor;
  const std::vector<double> warm =
      MeasuredEnergies(grid, /*scenario_column=*/false, "equiv_warm");
  // 4 sets x 2 sigmas = 8 paired cells.  Warm-started links may converge
  // to BETTER optima than the cold WCS-seeded solves (the continuation
  // escapes local points — observed on these draws), so improvement is
  // unbounded; what the chain must never do is deliver materially WORSE
  // energy than the cold path, per cell or on the grid mean.
  ExpectPairedEquivalent(cold, warm, /*max_row_worse=*/0.02,
                         /*max_row_better=*/std::numeric_limits<double>::infinity(),
                         /*max_mean_worse=*/0.005);
}

}  // namespace
}  // namespace dvs::runner
