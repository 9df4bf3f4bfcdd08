// Variable-voltage processor models.
//
// The paper assumes a continuously variable-voltage CPU whose clock cycle
// time is inversely proportional to the supply voltage: speed = k * V
// (LinearDvsModel).  That is the one law the offline planning stack solves
// under — the NLP objective, the exact WCS program and the solve-cache
// identity are derived for it, and core::PlanningModel rejects any other
// model.  DvsModel stays an interface because the runtime side is wider: a
// discrete-level wrapper (DiscreteDvsModel) models processors exposing a
// finite set of operating points, quantising requested speeds upward so
// deadlines hold, and the simulator dispatches through it.
//
// Conventions: time in milliseconds, speed in cycles per millisecond, energy
// in units of Ceff * V^2 per cycle (arbitrary but consistent; the paper only
// reports ratios).
#ifndef ACS_MODEL_POWER_MODEL_H
#define ACS_MODEL_POWER_MODEL_H

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

namespace dvs::model {

/// Abstract DVS processor.
class DvsModel {
 public:
  virtual ~DvsModel() = default;

  /// Supply-voltage range (volts); vmin > 0, vmax > vmin.
  virtual double vmin() const = 0;
  virtual double vmax() const = 0;

  /// Effective switching capacitance (energy scale factor).
  virtual double ceff() const = 0;

  /// Execution speed in cycles/ms at voltage `v` (v within [vmin, vmax]).
  virtual double SpeedAt(double v) const = 0;

  /// Inverse of SpeedAt.  `speed` must lie in (0, SpeedAt(vmax)]; values
  /// below SpeedAt(vmin) return voltages below vmin — callers clamp with
  /// ClampVoltage to decide between "run slower" and "run at vmin and idle".
  virtual double VoltageForSpeed(double speed) const = 0;

  // --- Derived conveniences -------------------------------------------------

  /// Seconds... milliseconds per cycle at voltage v.
  double CycleTime(double v) const { return 1.0 / SpeedAt(v); }

  /// Fastest achievable speed (cycles/ms).
  double MaxSpeed() const { return SpeedAt(vmax()); }

  /// Slowest sustainable speed (cycles/ms).
  double MinSpeed() const { return SpeedAt(vmin()); }

  /// Energy of one cycle at voltage v: ceff * v^2.
  double EnergyPerCycle(double v) const { return ceff() * v * v; }

  /// Energy of `cycles` cycles at voltage v.
  double Energy(double v, double cycles) const {
    return EnergyPerCycle(v) * cycles;
  }

  /// Clamps a voltage into the legal range.
  double ClampVoltage(double v) const;

  /// Voltage needed to run `cycles` within `window` ms, clamped to range.
  /// A non-positive window returns vmax (degenerate dispatch; the caller is
  /// responsible for feasibility checking).
  double VoltageForWork(double cycles, double window) const;
};

/// f = k * V: the motivational example's model ("cycle time inversely
/// proportional to supply voltage").
class LinearDvsModel final : public DvsModel {
 public:
  /// `cycles_per_ms_per_volt` is the proportionality constant k;
  /// speed(V) = k * V.
  LinearDvsModel(double vmin, double vmax, double ceff,
                 double cycles_per_ms_per_volt);

  double vmin() const override { return vmin_; }
  double vmax() const override { return vmax_; }
  double ceff() const override { return ceff_; }
  double SpeedAt(double v) const override;
  double VoltageForSpeed(double speed) const override;

  double k() const { return k_; }

 private:
  double vmin_;
  double vmax_;
  double ceff_;
  double k_;
};

/// Finite operating points over an underlying continuous model.  Requested
/// speeds round *up* to the next level so every deadline guarantee of the
/// continuous analysis still holds (the processor just finishes early).
class DiscreteDvsModel final : public DvsModel {
 public:
  /// `levels` are supply voltages; they are sorted and must lie within the
  /// base model's range.  At least one level is required.
  DiscreteDvsModel(std::shared_ptr<const DvsModel> base,
                   std::vector<double> levels);

  double vmin() const override { return levels_.front(); }
  double vmax() const override { return levels_.back(); }
  double ceff() const override { return base_->ceff(); }
  double SpeedAt(double v) const override { return base_->SpeedAt(v); }

  /// Returns the smallest level whose speed covers `speed` (vmax when even
  /// the top level is too slow — callers detect overload separately).
  double VoltageForSpeed(double speed) const override;

  /// Builds `count` evenly spaced levels across the base model's range.
  static std::vector<double> EvenLevels(const DvsModel& base, int count);

 private:
  std::shared_ptr<const DvsModel> base_;
  std::vector<double> levels_;
};

/// Voltage-transition overhead (ignored by the paper's formulation; the
/// simulator can charge it to quantify the assumption — see the ablation
/// bench).  Both costs scale with |delta V|.
struct TransitionOverhead {
  double time_per_volt = 0.0;    // ms of stall per volt of change
  double energy_per_volt = 0.0;  // energy per volt of change

  bool IsZero() const { return time_per_volt == 0.0 && energy_per_volt == 0.0; }

  /// Throws util::InvalidArgumentError naming the field unless both fields
  /// are finite and non-negative (a negative stall would run time
  /// backwards).
  void Validate() const;
};

/// Always-on per-core power floor (leakage + uncore), the term that makes
/// the core count an energy trade-off in the multi-core aggregation: DVS
/// lowers the dynamic energy per core while every powered core keeps paying
/// this floor for the whole mission time (Huang et al., leakage-aware
/// reallocation).  Units: energy per ms per core, in the same ceff*V^2 scale
/// as the dynamic energy.
struct IdlePower {
  double power_per_ms = 0.0;

  bool IsZero() const { return power_per_ms == 0.0; }

  /// Energy the floor costs one core over `duration` ms.
  double Energy(double duration) const { return power_per_ms * duration; }
};

/// One processor sleep state (the DPM layer's table entry, beside the
/// IdlePower floor): the power drawn while asleep plus the latency and
/// energy of the enter/exit transitions.  A core commits a *timed* sleep
/// across a known idle interval — the wake-up timer fires exit_latency
/// before the interval ends, so a committed sleep can never push the next
/// dispatch late (deadline-safe by construction); the engine only commits
/// when the interval beats BreakEvenTime.  Units match IdlePower (energy
/// per ms in the ceff*V^2 scale).
struct SleepState {
  double power_per_ms = 0.0;   // drawn while asleep (< the awake floor)
  double enter_latency = 0.0;  // ms to enter the state
  double exit_latency = 0.0;   // ms to wake from it
  double enter_energy = 0.0;   // charged per committed transition
  double exit_energy = 0.0;

  bool IsZero() const {
    return power_per_ms == 0.0 && enter_latency == 0.0 &&
           exit_latency == 0.0 && enter_energy == 0.0 && exit_energy == 0.0;
  }

  double TransitionLatency() const { return enter_latency + exit_latency; }
  double TransitionEnergy() const { return enter_energy + exit_energy; }

  /// Shortest idle interval worth sleeping through under the awake floor
  /// `idle`: the interval must cover both transitions and the floor energy
  /// saved must pay for the transition energy net of the sleep power drawn
  /// while transitioning.  +infinity when the state never pays (floor <=
  /// sleep power), so Worthwhile is false for every finite interval.
  double BreakEvenTime(const IdlePower& idle) const {
    const double saved_per_ms = idle.power_per_ms - power_per_ms;
    if (saved_per_ms <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    const double amortize =
        (TransitionEnergy() - power_per_ms * TransitionLatency()) /
        saved_per_ms;
    return std::max(TransitionLatency(), amortize);
  }

  /// True when sleeping through a `gap`-ms idle interval costs less than
  /// idling it at the floor (and the interval covers both transitions).
  bool Worthwhile(double gap, const IdlePower& idle) const {
    return gap >= BreakEvenTime(idle);
  }

  /// Energy of a committed sleep across a `gap`-ms interval: both
  /// transitions plus sleep-power residency.  Requires
  /// gap >= TransitionLatency().
  double Energy(double gap) const {
    return TransitionEnergy() + power_per_ms * (gap - TransitionLatency());
  }
};

}  // namespace dvs::model

#endif  // ACS_MODEL_POWER_MODEL_H
