#include "mp/fleet.h"

#include <algorithm>
#include <optional>

#include "core/eval_workspace.h"
#include "dpm/reallocate.h"
#include "fps/expansion.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/rng.h"
#include "util/error.h"

namespace dvs::mp {

double FleetResult::ImprovementOver(std::size_t method_index,
                                    std::size_t baseline_index) const {
  return core::ImprovementRatio(
      outcomes.at(baseline_index).fleet.measured_energy,
      outcomes.at(method_index).fleet.measured_energy);
}

FleetResult EvaluateFleet(
    const model::TaskSet& set, const model::DvsModel& dvs,
    const Partitioner& partitioner, int cores,
    const std::vector<const core::ScheduleMethod*>& methods,
    const core::ExperimentOptions& options, const model::IdlePower& idle,
    core::EvalWorkspace* workspace) {
  ACS_REQUIRE(!methods.empty(), "fleet evaluation needs at least one method");

  FleetResult result;
  result.partition = partitioner.Assign(set, dvs, cores, idle);
  ACS_REQUIRE(result.partition.cores() == cores,
              "partitioner returned " +
                  std::to_string(result.partition.cores()) +
                  " cores for a " + std::to_string(cores) + "-core fleet");
  result.partition.Validate(set);
  result.outcomes.resize(methods.size());

  const bool dpm = options.dpm.enabled;

  // Cross-hyper-period reallocation (core shutdown): consolidate once, run
  // the partitioner's assignment for the first `realloc_after` hyper-periods
  // and the consolidated one for the remainder.  A single span — DPM off,
  // reallocation off, nothing movable, or a mission too short to split —
  // keeps the evaluation loop on the legacy shape with weight exactly 1.
  struct Span {
    const Partition* partition;
    std::int64_t hyper_periods;
  };
  const std::int64_t total_hp = options.hyper_periods;
  dpm::ReallocationResult realloc;
  std::vector<Span> spans;
  if (dpm && options.dpm.reallocate) {
    const std::int64_t after =
        std::max<std::int64_t>(1, options.dpm.realloc_after);
    if (total_hp > after) {
      realloc = dpm::Consolidate(result.partition, set, dvs, idle);
      if (realloc.migrations > 0) {
        realloc.partition.Validate(set);
        spans.push_back(Span{&result.partition, after});
        spans.push_back(Span{&realloc.partition, total_hp - after});
      }
    }
  }
  if (spans.empty()) {
    spans.push_back(Span{&result.partition, total_hp});
  }

  // DPM off: the always-on floor is aggregated here — per powered core over
  // the whole mission — because the simulator charges nothing for idleness
  // on the legacy path.  It belongs to *measured* energy only: the NLP
  // objective never modelled the floor, so predicted energy stays the pure
  // dynamic-energy prediction (regression-pinned by mp_fleet_test).  DPM
  // on: the simulator owns the floor and the sleep ledger per core, so
  // initialising anything here would double-charge.
  const double idle_rate =
      static_cast<double>(result.partition.used_cores()) * idle.power_per_ms;
  for (FleetOutcome& outcome : result.outcomes) {
    if (!dpm) {
      outcome.fleet.measured_energy = idle_rate;
      outcome.fleet.idle_energy = idle_rate;
      outcome.fleet.weighted_cores =
          static_cast<double>(result.partition.used_cores());
    }
    outcome.fleet.migrations = realloc.migrations;
  }

  for (std::size_t s = 0; s < spans.size(); ++s) {
    const Partition& partition = *spans[s].partition;
    const std::int64_t span_hp = spans[s].hyper_periods;
    const double weight =
        spans.size() > 1 ? static_cast<double>(span_hp) /
                               static_cast<double>(total_hp)
                         : 1.0;
    for (int c = 0; c < partition.cores(); ++c) {
      const std::vector<model::TaskIndex>& owned =
          partition.assignment[static_cast<std::size_t>(c)];
      if (owned.empty()) {
        continue;  // power-gated
      }
      obs::Span core_span("core", "mp");
      if (core_span.enabled()) {
        core_span.Arg("core", static_cast<std::int64_t>(c));
        core_span.Arg("tasks", static_cast<std::int64_t>(owned.size()));
        if (s > 0) {
          core_span.Arg("span", static_cast<std::int64_t>(s));
        }
      }
      core::ExperimentOptions core_options = options;
      core_options.hyper_periods = span_hp;
      if (dpm) {
        // One source of truth for the floor: the simulator and this
        // aggregation must agree on it (dpm::Options doc).
        core_options.dpm.idle = idle;
      }
      // Span 0 keeps the legacy per-core stream (byte-identity with the
      // pre-DPM pipeline); later spans fork a fresh stream labelled by the
      // span index, so the post-reallocation hyper-periods draw workloads
      // independent of — but just as reproducible as — the first span's.
      core_options.seed =
          s == 0 ? stats::Rng(options.seed)
                       .ForkWith(static_cast<std::uint64_t>(c))
                       .NextU64()
                 : stats::Rng(options.seed)
                       .ForkWith(static_cast<std::uint64_t>(s))
                       .ForkWith(static_cast<std::uint64_t>(c))
                       .NextU64();

      // One context per core: the WCS/ACS/Vmax-ASAP solves amortise across
      // the methods, and every method faces this core's identical workload
      // realisation, drawn once.  The engine draws once per release in
      // global release order whatever the policy does, so
      // core::EvaluateMethods records the first arm's draws and replays
      // them to the others (drift arms draw their own).  With a workspace
      // the subset's expansion and solves live in its content-keyed cache —
      // shared with any other cell that put the same tasks on some core
      // (including the other span of this very cell) — and the
      // solves/simulations reuse the calling thread's scratch buffers.
      // Workload streams stay keyed by the physical core index, so cached
      // solves never change what a cell simulates.
      const model::TaskSet subset = SubTaskSet(set, owned);
      std::optional<fps::FullyPreemptiveSchedule> local_fps;
      core::EvalWorkspace::PreparedCell* prep = nullptr;
      if (workspace != nullptr) {
        prep = &workspace->Prepare(subset, dvs);
      } else {
        local_fps.emplace(subset);
      }
      const fps::FullyPreemptiveSchedule& fps =
          prep != nullptr ? prep->fps : *local_fps;
      if (s == 0) {
        result.sub_instances += fps.sub_count();
      }
      // TaskSet validation guarantees a positive hyper-period; the guard
      // keeps the per-ms normalisation from ever dividing by zero
      // regardless.
      const double hyper_period = static_cast<double>(subset.hyper_period());
      ACS_REQUIRE(hyper_period > 0.0, "subset hyper-period must be positive");

      std::optional<core::MethodContext> context;
      if (workspace != nullptr) {
        context.emplace(fps, dvs, *workspace, prep->solves);
      } else {
        context.emplace(fps, dvs);
      }
      const std::vector<core::MethodOutcome> outcomes =
          core::EvaluateMethods(methods, *context, core_options);
      for (std::size_t m = 0; m < methods.size(); ++m) {
        const core::MethodOutcome& outcome = outcomes[m];
        FleetOutcome& fleet = result.outcomes[m];
        fleet.per_core.push_back(outcome);
        fleet.fleet.measured_energy +=
            weight * (outcome.measured_energy / hyper_period);
        fleet.fleet.predicted_energy +=
            weight * (outcome.predicted_energy / hyper_period);
        fleet.fleet.deadline_misses += outcome.deadline_misses;
        fleet.fleet.voltage_switches += outcome.voltage_switches;
        fleet.fleet.used_fallback |= outcome.used_fallback;
        fleet.fleet.solver_outer_iterations += outcome.solver_outer_iterations;
        fleet.fleet.solver_inner_iterations += outcome.solver_inner_iterations;
        fleet.fleet.solver_evaluations += outcome.solver_evaluations;
        fleet.fleet.solver_inner_capped += outcome.solver_inner_capped;
        fleet.fleet.solver_max_violation = std::max(
            fleet.fleet.solver_max_violation, outcome.solver_max_violation);
        if (dpm) {
          fleet.fleet.idle_energy +=
              weight * (outcome.idle_energy / hyper_period);
          fleet.fleet.sleep_energy +=
              weight * (outcome.sleep_energy / hyper_period);
          fleet.fleet.sleep_time += outcome.sleep_time;
          fleet.fleet.sleeps += outcome.sleeps;
          // Time-weighted powered-core tally: this core counts for the
          // span's share of the mission, minus the fraction it slept.
          const double span_ms =
              static_cast<double>(span_hp) * hyper_period;
          fleet.fleet.weighted_cores +=
              weight *
              (1.0 - (span_ms > 0.0 ? outcome.sleep_time / span_ms : 0.0));
        }
      }
    }
  }

  if (dpm) {
    // Result-charged telemetry (thread-count invariant: pure functions of
    // the cell).  Migrations are a property of the cell, sleeps and sleep
    // energy of each method's simulation.
    obs::Count(obs::metric::kDpmMigrations, realloc.migrations);
    for (const FleetOutcome& outcome : result.outcomes) {
      obs::Count(obs::metric::kDpmSleeps, outcome.fleet.sleeps);
      obs::Observe(obs::metric::kDpmSleepEnergy, outcome.fleet.sleep_energy);
    }
  }
  return result;
}

}  // namespace dvs::mp
