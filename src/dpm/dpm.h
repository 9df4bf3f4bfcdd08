// Leakage-aware DPM primitives: critical speed, the voltage-floor model,
// and named sleep-state presets.
//
// Critical speed is the classical leakage-aware DVS observation (Huang et
// al., leakage-aware reallocation): with an always-on power floor, the
// energy of one cycle is ceff*V(s)^2 (dynamic) + P_floor/s (the floor paid
// while the cycle executes), which is minimised at a strictly positive
// speed — below it, slowing down *increases* total energy.  With DPM on,
// the NLP's box constraint and every simulator dispatch clamp should never
// choose a speed below it; both read DvsModel::vmin()/ClampVoltage, so one
// model with vmin raised floors the whole pipeline at once.
//
// The floored model is an ordinary library model (FlooredModel rebuilds
// the linear or alpha-law base with a higher vmin), so it takes the same
// solver paths as any other model and core::DescribeModel gives it its own
// content identity in the solve caches.  runner::RunGrid applies it once
// per run from ExperimentGrid::dpm.
#ifndef ACS_DPM_DPM_H
#define ACS_DPM_DPM_H

#include <memory>
#include <string>
#include <vector>

#include "dpm/options.h"
#include "model/power_model.h"

namespace dvs::dpm {

/// The speed (cycles/ms) minimising total energy per cycle —
/// ceff*V(s)^2 + leak_power_per_ms/s — over the model's speed range.
/// Deterministic fixed-iteration ternary search (the objective is unimodal
/// for every shipped model).  A non-positive leak power returns MinSpeed
/// (no floor: without leakage, slower is always at least as good).
double CriticalSpeed(const model::DvsModel& dvs, double leak_power_per_ms);

/// The model a DPM run evaluates under when its critical-speed floor binds:
/// `base` rebuilt as its own type — a LinearDvsModel or AlphaDvsModel with
/// every parameter copied — with vmin raised to the voltage of the floor
/// speed.  The floor speed is options.critical_speed x MaxSpeed when that
/// is positive, else CriticalSpeed(base, options.idle.power_per_ms).
/// Returns nullptr when no floor applies: DPM off, critical_speed < 0, or
/// a floor not above base.vmin().  Throws util::InvalidArgumentError when a
/// floor applies to any other model type, or reaches base.MaxSpeed().
std::unique_ptr<const model::DvsModel> FlooredModel(
    const model::DvsModel& base, const Options& options);

/// Named sleep-state presets, resolved against the run's idle floor so the
/// same name behaves sensibly at any power scale:
///   "ideal"    zero-cost power gating (break-even 0; the savings bound)
///   "shallow"  30% floor residency, 0.2 ms round trip, cheap transitions
///   "deep"     2% floor residency, 1 ms round trip, one floor-ms per
///              transition pair (break-even ~1 ms)
/// Throws util::InvalidArgumentError on unknown names, listing the presets.
model::SleepState ResolveSleepState(const std::string& name,
                                    const model::IdlePower& idle);

/// The preset names, in registration order (CLI help text).
const std::vector<std::string>& SleepStateNames();

}  // namespace dvs::dpm

#endif  // ACS_DPM_DPM_H
