// Bit-exact pin of the simulation engine: a grid of hand-built sets and
// schedules under every built-in policy, the stateful and stateless
// workload scenarios, DPM on/off and transition overhead on/off.  Each case
// records the exact bits of the SimResult ledger (energies, counters,
// makespan, idle/sleep/stall fields, realised workload sums), so any engine
// rewrite that moves a single decision, slice or rounding fails here.  No
// NLP solve is involved, so nothing depends on the SIMD dispatch level.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fps/expansion.h"
#include "model/workload.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "sim/static_schedule.h"
#include "workload/presets.h"
#include "workload/scenario.h"

namespace dvs::sim {
namespace {

model::Task MakeTask(std::string name, std::int64_t period, double wcec,
                     double bcec) {
  model::Task t;
  t.name = std::move(name);
  t.period = period;
  t.wcec = wcec;
  t.bcec = bcec;
  t.acec = 0.5 * (wcec + bcec);
  return t;
}

// A task set with a hand-written feasible stretched schedule (checked by
// VerifyWorstCase in the test), so greedy reclamation has slack to pass on.
struct PinSet {
  PinSet(std::vector<model::Task> tasks, std::vector<double> end_times,
         std::vector<double> budgets)
      : set(std::move(tasks)),
        cpu(workload::DefaultModel()),
        fps(set),
        schedule(fps, std::move(end_times), std::move(budgets)) {}

  model::TaskSet set;
  model::LinearDvsModel cpu;
  fps::FullyPreemptiveSchedule fps;
  StaticSchedule schedule;
};

const std::vector<std::unique_ptr<PinSet>>& PinSets() {
  static const std::vector<std::unique_ptr<PinSet>> sets = [] {
    std::vector<std::unique_ptr<PinSet>> s;
    // Two tasks over a 20 ms hyper-period; b is split 6 + 6 around a's
    // second release.
    s.push_back(std::make_unique<PinSet>(
        std::vector<model::Task>{MakeTask("a", 10, 8.0, 2.0),
                                 MakeTask("b", 20, 12.0, 3.0)},
        std::vector<double>{3.0, 10.0, 13.0, 20.0},
        std::vector<double>{8.0, 6.0, 8.0, 6.0}));
    // Three tasks, periods 5/10/20: c is preempted three times and b once.
    s.push_back(std::make_unique<PinSet>(
        std::vector<model::Task>{MakeTask("a", 5, 6.0, 1.5),
                                 MakeTask("b", 10, 10.0, 2.0),
                                 MakeTask("c", 20, 16.0, 4.0)},
        std::vector<double>{2.5, 4.5, 5.0, 7.0, 8.0, 10.0, 12.0, 15.0, 15.0,
                            17.0, 17.0, 20.0},
        std::vector<double>{6.0, 8.0, 2.0, 6.0, 2.0, 8.0, 6.0, 10.0, 0.0, 6.0,
                            0.0, 6.0}));
    // The same three tasks listed out of period order: the total order (and
    // so the schedule) is unchanged, but dispatch rank no longer follows
    // the task index.
    s.push_back(std::make_unique<PinSet>(
        std::vector<model::Task>{MakeTask("c", 20, 16.0, 4.0),
                                 MakeTask("a", 5, 6.0, 1.5),
                                 MakeTask("b", 10, 10.0, 2.0)},
        std::vector<double>{2.5, 4.5, 5.0, 7.0, 8.0, 10.0, 12.0, 15.0, 15.0,
                            17.0, 17.0, 20.0},
        std::vector<double>{6.0, 8.0, 2.0, 6.0, 2.0, 8.0, 6.0, 10.0, 0.0, 6.0,
                            0.0, 6.0}));
    return s;
  }();
  return sets;
}

// Hand-written sorted calibration draws for the expected-case policy: ten
// points per task spread unevenly over [BCEC, WCEC].
std::vector<std::vector<double>> Draws(const model::TaskSet& set) {
  const double fractions[] = {0.0,  0.05, 0.1, 0.1, 0.2,
                              0.35, 0.5,  0.6, 0.9, 1.0};
  std::vector<std::vector<double>> draws(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    const model::Task& t = set.task(i);
    for (double f : fractions) {
      draws[i].push_back(t.bcec + f * (t.wcec - t.bcec));
    }
  }
  return draws;
}

const char* const kPolicies[] = {"greedy", "greedy-early", "vmax",
                                  "static-only", "expected-case"};
const char* const kScenarios[] = {"iid-normal", "bursty", "heavy-tail",
                                  "correlated", "trace"};

AnyPolicy MakePolicy(const PinSet& s, const std::string& name) {
  if (name == "greedy") {
    return GreedyReclaimPolicy(s.cpu);
  }
  if (name == "greedy-early") {
    return GreedyReclaimPolicy(s.cpu, /*allow_early_start=*/true);
  }
  if (name == "vmax") {
    return VmaxPolicy(s.cpu);
  }
  if (name == "static-only") {
    return StaticOnlyPolicy(s.fps, s.schedule, s.cpu);
  }
  return ExpectedCasePolicy(s.fps, s.schedule, s.cpu, Draws(s.set), 8);
}

struct PinCase {
  std::size_t set;
  std::size_t policy;
  std::size_t scenario;
  bool dpm;
  bool transition;
};

std::vector<PinCase> PinGrid() {
  std::vector<PinCase> grid;
  for (std::size_t set = 0; set < PinSets().size(); ++set) {
    for (std::size_t policy = 0; policy < std::size(kPolicies); ++policy) {
      for (std::size_t scenario = 0; scenario < std::size(kScenarios);
           ++scenario) {
        for (bool dpm : {false, true}) {
          for (bool transition : {false, true}) {
            grid.push_back({set, policy, scenario, dpm, transition});
          }
        }
      }
    }
  }
  return grid;
}

std::string Label(const PinCase& c) {
  return "set=" + std::to_string(c.set) + " policy=" + kPolicies[c.policy] +
         " scenario=" + kScenarios[c.scenario] +
         " dpm=" + std::to_string(c.dpm) +
         " transition=" + std::to_string(c.transition);
}

SimResult RunCase(const PinCase& c) {
  const PinSet& s = *PinSets()[c.set];
  const AnyPolicy policy = MakePolicy(s, kPolicies[c.policy]);
  const std::unique_ptr<model::WorkloadSampler> sampler =
      workload::ScenarioRegistry::Builtin()
          .Get(kScenarios[c.scenario])
          .MakeSampler(s.set, 6.0);
  SimOptions options;
  options.hyper_periods = 7;
  if (c.transition) {
    options.transition.time_per_volt = 0.05;
    options.transition.energy_per_volt = 0.5;
  }
  if (c.dpm) {
    options.dpm = true;
    options.idle_power.power_per_ms = 0.3;
    options.sleep.power_per_ms = 0.02;
    options.sleep.enter_latency = 0.1;
    options.sleep.exit_latency = 0.1;
    options.sleep.enter_energy = 0.04;
    options.sleep.exit_energy = 0.04;
  }
  stats::Rng rng(0x5EED0000u + c.set * 131 + c.scenario);
  return Simulate(s.fps, s.schedule, s.cpu, policy, *sampler, rng, options);
}

// FNV-1a over the exact bits of every pinned SimResult field.
class Digest {
 public:
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(std::int64_t value) { Add(static_cast<std::uint64_t>(value)); }
  void Add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xFFu)) * 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t Fingerprint(const SimResult& r) {
  Digest d;
  d.Add(r.total_energy);
  for (double e : r.per_task_energy) {
    d.Add(e);
  }
  d.Add(r.deadline_misses);
  d.Add(r.completed_instances);
  d.Add(r.busy_time);
  d.Add(r.idle_time);
  d.Add(r.stall_time);
  d.Add(r.transition_energy);
  d.Add(r.dispatches);
  d.Add(r.preemptions);
  d.Add(r.voltage_switches);
  d.Add(r.makespan);
  d.Add(r.idle_energy);
  d.Add(r.sleep_energy);
  d.Add(r.sleep_time);
  d.Add(r.sleeps);
  for (double c : r.sampled_cycles) {
    d.Add(c);
  }
  for (std::int64_t n : r.sampled_counts) {
    d.Add(n);
  }
  return d.value();
}

// Per case, in PinGrid() order: the total energy (readable on a failure)
// and the fingerprint of the whole ledger.  Recorded on the engine before
// its per-run dispatch tables and hoisted model constants; the two
// expected-case heavy-tail cases of set 1 were re-recorded when a dispatch
// reaching its sub-instance's release within the event tolerance stopped
// running at the deferral's placeholder Vmax.
struct Pin {
  double total_energy;
  std::uint64_t fingerprint;
};
const Pin kPins[] = {
    {0x1.f3f5d3aa3a742p+8, 0x904f1331ca8e7f5bULL},
    {0x1.0daf15555f2b1p+9, 0x2d084a5c1ccfc89eULL},
    {0x1.0a226f6e01e49p+9, 0xff375937ada30396ULL},
    {0x1.1e16f3c4b3815p+9, 0xde6644f542348606ULL},
    {0x1.8ce42ff92dca8p+8, 0x51c12f493f046d49ULL},
    {0x1.9ab8642a1c4e1p+8, 0xb2dac00303e1caceULL},
    {0x1.a4bdd3e49db92p+8, 0xb1defdc751b8dcaeULL},
    {0x1.b2f52843f950cp+8, 0x52c54f8491ed2e65ULL},
    {0x1.b88444420758bp+7, 0x5407003a0c28be7aULL},
    {0x1.d4bcd4e8126a9p+7, 0x530ccb0f800cb722ULL},
    {0x1.d9ee9e0e038f6p+7, 0x98b247cd7cb4f3b9ULL},
    {0x1.f6f17862b0bb6p+7, 0xedbf12e8d1de2ba1ULL},
    {0x1.155e22639e3b9p+9, 0x409f360decc4f9e2ULL},
    {0x1.208267b5a8c0ap+9, 0x4f41fcfa0a202735ULL},
    {0x1.2238262f1635dp+9, 0x32f52fd080fcc220ULL},
    {0x1.2d95379530b86p+9, 0x6099c62bc40e6db8ULL},
    {0x1.fa62edf93711ap+8, 0xf6adf1fba2d6a2a0ULL},
    {0x1.0eb5abd165a99p+9, 0xcc86ca9f0eebc0a9ULL},
    {0x1.0ce39621fabdfp+9, 0x794d762906002c5eULL},
    {0x1.1ea4bcaba01acp+9, 0x42db5b2002d67f27ULL},
    {0x1.f3f5d3aa3a742p+8, 0x904f1331ca8e7f5bULL},
    {0x1.0daf15555f2b1p+9, 0x2d084a5c1ccfc89eULL},
    {0x1.0a226f6e01e49p+9, 0xff375937ada30396ULL},
    {0x1.1e16f3c4b3815p+9, 0xde6644f542348606ULL},
    {0x1.8ce42ff92dca8p+8, 0x51c12f493f046d49ULL},
    {0x1.9ab8642a1c4e1p+8, 0xb2dac00303e1caceULL},
    {0x1.a4bdd3e49db92p+8, 0xb1defdc751b8dcaeULL},
    {0x1.b2f52843f950cp+8, 0x52c54f8491ed2e65ULL},
    {0x1.b88444420758bp+7, 0x5407003a0c28be7aULL},
    {0x1.d4bcd4e8126a9p+7, 0x530ccb0f800cb722ULL},
    {0x1.d9ee9e0e038f6p+7, 0x98b247cd7cb4f3b9ULL},
    {0x1.f6f17862b0bb6p+7, 0xedbf12e8d1de2ba1ULL},
    {0x1.155e22639e3b9p+9, 0x409f360decc4f9e2ULL},
    {0x1.208267b5a8c0ap+9, 0x4f41fcfa0a202735ULL},
    {0x1.2238262f1635dp+9, 0x32f52fd080fcc220ULL},
    {0x1.2d95379530b86p+9, 0x6099c62bc40e6db8ULL},
    {0x1.fa62edf93711ap+8, 0xf6adf1fba2d6a2a0ULL},
    {0x1.0eb5abd165a99p+9, 0xcc86ca9f0eebc0a9ULL},
    {0x1.0ce39621fabdfp+9, 0x794d762906002c5eULL},
    {0x1.1ea4bcaba01acp+9, 0x42db5b2002d67f27ULL},
    {0x1.ec448c7e25df9p+10, 0xfd01a186951ded28ULL},
    {0x1.ec448c7e25df9p+10, 0xfd01a186951ded28ULL},
    {0x1.ef632f488e4b8p+10, 0xd7f1234214cb219fULL},
    {0x1.ef632f488e4b8p+10, 0xd7f1234214cb219fULL},
    {0x1.639b3ded4c8d7p+10, 0xe7e12eb8d01ad982ULL},
    {0x1.639b3ded4c8d7p+10, 0xe7e12eb8d01ad982ULL},
    {0x1.6620d12c83622p+10, 0x8b7658b066e90216ULL},
    {0x1.6620d12c83622p+10, 0x8b7658b066e90216ULL},
    {0x1.a20134edd38a8p+9, 0xe2c1db2ccf1b44bbULL},
    {0x1.a20134edd38a8p+9, 0xe2c1db2ccf1b44bbULL},
    {0x1.a5c3f6cae6194p+9, 0xbb13168c334c065cULL},
    {0x1.a5c3f6cae6194p+9, 0xbb13168c334c065cULL},
    {0x1.c22b49569563cp+10, 0x2962b79d628b296aULL},
    {0x1.c22b49569563cp+10, 0x2962b79d628b296aULL},
    {0x1.c51ac598569e8p+10, 0x6d3a9f836656aea0ULL},
    {0x1.c51ac598569e8p+10, 0x6d3a9f836656aea0ULL},
    {0x1.e6a3d70a3d704p+10, 0xb41937c94ebb8897ULL},
    {0x1.e6a3d70a3d704p+10, 0xb41937c94ebb8897ULL},
    {0x1.e9bc2c3c9eec6p+10, 0xb25cbccb865740bdULL},
    {0x1.e9bc2c3c9eec6p+10, 0xb25cbccb865740bdULL},
    {0x1.ff9315e5b8f16p+8, 0x57667d65920b76d0ULL},
    {0x1.0b18c7e6abb5dp+9, 0x66667fcee00e8c05ULL},
    {0x1.0e7fef390d5ddp+9, 0x43767ceb107f7cc7ULL},
    {0x1.1a203d3dedacp+9, 0x43d0bdb8c0832f51ULL},
    {0x1.9600e3cb69a95p+8, 0x3ab5557333ba6250ULL},
    {0x1.a2ab8e761454p+8, 0x728ebb3b258f8c75ULL},
    {0x1.ab10adeed688cp+8, 0x7fcabccdabdfcaa4ULL},
    {0x1.b8162408c784p+8, 0xb48d574a541a4627ULL},
    {0x1.c6977ab3aca08p+7, 0x679a2dff46e9f21fULL},
    {0x1.dfecd00901f5bp+7, 0xd2f84ee753d956a2ULL},
    {0x1.e352948958d3cp+7, 0xfcbc9ada735f5fbfULL},
    {0x1.fd5d80bd3aca1p+7, 0x2e87640f33311ba7ULL},
    {0x1.18aa8dba44467p+9, 0x4f85931689220d3bULL},
    {0x1.20cf200368d8cp+9, 0x05f0f28f2df37f1eULL},
    {0x1.24a90eb47d77cp+9, 0x182eafc47df299d4ULL},
    {0x1.2d07ff32e187p+9, 0x7202db267b5d1392ULL},
    {0x1.024d28efd0d11p+9, 0x44791e3291aac1ceULL},
    {0x1.0cb4c769b86fbp+9, 0xb2949d62fbd1a38bULL},
    {0x1.10aa78cf0c357p+9, 0x79d9afb507142c8dULL},
    {0x1.1b5638995ededp+9, 0xdad9ff80ff7f1b7fULL},
    {0x1.9574f4b1bf2e8p+8, 0xf96b3a486b145accULL},
    {0x1.d6d966bea57c4p+8, 0xc8a9f3b389b81a14ULL},
    {0x1.b6b0740aadd9ep+8, 0xccdb4a08bc27bf21ULL},
    {0x1.f86961c34e61cp+8, 0x5d4d3b2b063d8cc5ULL},
    {0x1.27a9a5ddd6949p+8, 0x9b076b330d35c91eULL},
    {0x1.474029f7e9a29p+8, 0x69ef829588509bd2ULL},
    {0x1.4073d2edc75e7p+8, 0xcea4e76f6305c612ULL},
    {0x1.6045c0eefd29dp+8, 0xc81af4abbf777833ULL},
    {0x1.1ebe5bcbe0903p+7, 0xbabe9a1729a4d9c9ULL},
    {0x1.388f1110aeff7p+7, 0x61b65a4d7c2a4569ULL},
    {0x1.42879e17eed9cp+7, 0x46ef5295e286f4c9ULL},
    {0x1.5d003cf049e9p+7, 0x681df947ed679b70ULL},
    {0x1.eaf6a80de8c1cp+8, 0x9272d271ce824a8fULL},
    {0x1.1e993901cb78p+9, 0x25b3e41370293ffaULL},
    {0x1.02c80f35c0976p+9, 0x55c1289e7e323cbcULL},
    {0x1.2c159cd958f18p+9, 0x0742ff5d88a0b93bULL},
    {0x1.bee6399b94e6p+8, 0x765a261a9fed7b9cULL},
    {0x1.05e1e2ad59787p+9, 0xad646c3965a7d215ULL},
    {0x1.df30a2a191b3p+8, 0xca455130ee0043d2ULL},
    {0x1.162c54c9fa35cp+9, 0xa49d820cf07466aeULL},
    {0x1.dfe8844aa1c53p+10, 0xe9250968c032de61ULL},
    {0x1.f72f2953e0446p+10, 0xa69bed84b02786edULL},
    {0x1.e86acdf31f89ep+10, 0x41b7aec20aa0f995ULL},
    {0x1.ffcb82d6b0391p+10, 0x61473f2b3115cc04ULL},
    {0x1.312b868ef837dp+10, 0x53cdec9c8f7fdf35ULL},
    {0x1.40920c2ee55fp+10, 0xbcfb7d70e2ee3454ULL},
    {0x1.382bdfff6dd7ap+10, 0x5f7b22094b23734cULL},
    {0x1.47af734532177p+10, 0xb1f6bb9c6473123fULL},
    {0x1.25dc320f1310dp+9, 0x1c7e2cdadb6cd807ULL},
    {0x1.3e17c17b5183cp+9, 0xe60d6916fc4fddb6ULL},
    {0x1.30a1f96c77486p+9, 0xdda4c140bd35b79fULL},
    {0x1.49360adae39e7p+9, 0x471d97ad0554ef9bULL},
    {0x1.ab49bd1678ce8p+10, 0x7aa7ed7ed0f8f04dULL},
    {0x1.c5bc69d65ae57p+10, 0xd2c4d2a16b06ef6bULL},
    {0x1.b3ffdb2a18976p+10, 0xd4673b116e361acfULL},
    {0x1.ce912671f08aap+10, 0x41e91cb751bacc27ULL},
    {0x1.d5b2c5428b865p+10, 0x12ca1ceabcefdcb2ULL},
    {0x1.ed646f6dca3d4p+10, 0xcb810163e9be3f2bULL},
    {0x1.de3cda1078e49p+10, 0x0530e904625255eaULL},
    {0x1.f6095c73a7856p+10, 0xfb05b7ab56f13819ULL},
    {0x1.dc20115e5889cp+10, 0x10b4d0ccd3986391ULL},
    {0x1.f7482a18f310ep+10, 0xb91e6ca67d3281dbULL},
    {0x1.e4d8262996e19p+10, 0x7ca292850b0e14c8ULL},
    {0x1.00109485b067dp+11, 0x1cf92f69125002ceULL},
    {0x1.312b868ef837dp+10, 0x53cdec9c8f7fdf35ULL},
    {0x1.40920c2ee55fp+10, 0xbcfb7d70e2ee3454ULL},
    {0x1.382bdfff6dd7ap+10, 0x5f7b22094b23734cULL},
    {0x1.47af734532177p+10, 0xb1f6bb9c6473123fULL},
    {0x1.25dc320f1310dp+9, 0x1c7e2cdadb6cd807ULL},
    {0x1.3e17c17b5183cp+9, 0xe60d6916fc4fddb6ULL},
    {0x1.30a1f96c77486p+9, 0xdda4c140bd35b79fULL},
    {0x1.49360adae39e7p+9, 0x471d97ad0554ef9bULL},
    {0x1.a4d654c183cc9p+10, 0xd0994bdb029901b7ULL},
    {0x1.c38e81d0ae1e8p+10, 0x6d66e93d5415bb57ULL},
    {0x1.adf200d3c0eedp+10, 0x7535b8570bbce0c5ULL},
    {0x1.ccd1123e7309fp+10, 0x8b6a93373d28de2fULL},
    {0x1.d683caa6e0a23p+10, 0x6191fb8d78c60e3fULL},
    {0x1.f3f1ef0edaf66p+10, 0x9a6845ebfdfcf45bULL},
    {0x1.df1bfc54e80dep+10, 0x6137945cf3a4241bULL},
    {0x1.fca9ffae58921p+10, 0x72d6463c1ceaa8c0ULL},
    {0x1.0ea8106e09187p+12, 0xdb02c0a8f9f19713ULL},
    {0x1.0ea8106e09187p+12, 0xdb02c0a8f9f19713ULL},
    {0x1.101d8913e4976p+12, 0xfe353c6dfef24b6cULL},
    {0x1.101d8913e4976p+12, 0xfe353c6dfef24b6cULL},
    {0x1.7b09447c5dcbbp+11, 0xd63ee480ff3b317dULL},
    {0x1.7b09447c5dcbbp+11, 0xd63ee480ff3b317dULL},
    {0x1.7d4f7bebe2f12p+11, 0x8379481cf25b769aULL},
    {0x1.7d4f7bebe2f12p+11, 0x8379481cf25b769aULL},
    {0x1.a8150f36bdd95p+10, 0x0dbae428baef2149ULL},
    {0x1.a8150f36bdd95p+10, 0x0dbae428baef2149ULL},
    {0x1.ab2b6c6eb16e7p+10, 0xf934a0d7f10d5bb4ULL},
    {0x1.ab2b6c6eb16e7p+10, 0xf934a0d7f10d5bb4ULL},
    {0x1.03b9189b09224p+12, 0x8908096c8b8535d4ULL},
    {0x1.03b9189b09224p+12, 0x8908096c8b8535d4ULL},
    {0x1.0524fec243e0cp+12, 0xb0abcce793e0aa46ULL},
    {0x1.0524fec243e0cp+12, 0xb0abcce793e0aa46ULL},
    {0x1.025ae147ae143p+12, 0xd42659bd8b0997faULL},
    {0x1.025ae147ae143p+12, 0xd42659bd8b0997faULL},
    {0x1.03c8a75254606p+12, 0xcf6eec720cb96092ULL},
    {0x1.03c8a75254606p+12, 0xcf6eec720cb96092ULL},
    {0x1.8cf60813eb684p+11, 0xdff9eb1b031dcdedULL},
    {0x1.8fc0b2be96132p+11, 0x1e61cbc905e2857eULL},
    {0x1.908066d95ee8ep+11, 0x540f8affd71a59aeULL},
    {0x1.935f143f168c3p+11, 0xb6b58bc67a2b0296ULL},
    {0x1.1506780feb28bp+11, 0x520fb05b06c40746ULL},
    {0x1.178def8762a02p+11, 0x70934b7c006752ceULL},
    {0x1.17aabe8b0f376p+11, 0x491fa22d4967bfc4ULL},
    {0x1.1a44570d0a073p+11, 0x567c2dad7b554d54ULL},
    {0x1.39574b2c60e5bp+10, 0x80f4ca973f64297eULL},
    {0x1.3e663a1b4fd49p+10, 0xbc301ffaafa53b8bULL},
    {0x1.3cd379b80f18ep+10, 0xd4c1e1b8a118a7a0ULL},
    {0x1.4206aabc04b86p+10, 0xa51dc48e4aee2a7bULL},
    {0x1.6f859239aa9e3p+11, 0x52828a93295095eaULL},
    {0x1.7269d67deee29p+11, 0xc8a5f7f7cd45aa7bULL},
    {0x1.73031f7e1eaecp+11, 0x92a973a0083abb25ULL},
    {0x1.75fc1dfda4597p+11, 0x12878a51f58d38cdULL},
    {0x1.71d5db8005d33p+11, 0xc757cc61ef1c8e21ULL},
    {0x1.74a3b95de3b0fp+11, 0x0ef254b676ad4804ULL},
    {0x1.75444f2bcf1a3p+11, 0xdaf473df108b9401ULL},
    {0x1.78260ad98fb22p+11, 0xa5fab43a5d5ef655ULL},
    {0x1.cb6d4b9c37c4fp+10, 0x77cb00661470a601ULL},
    {0x1.0abf71bd0b099p+11, 0x699e6463cf13125eULL},
    {0x1.d4387ce3e3744p+10, 0x541d772da0eeb037ULL},
    {0x1.0f3391816534ap+11, 0x1110eb367d4e9fafULL},
    {0x1.f6079b3ce48f6p+9, 0x6157ee783c2fca7cULL},
    {0x1.1baad3e551f5ep+10, 0x71ae6204e4c12ed5ULL},
    {0x1.026b56ddd34dap+10, 0x1d92458230239c3eULL},
    {0x1.2330112bab1bp+10, 0x8c8f5962a2141891ULL},
    {0x1.9b85cd30d20eap+8, 0xfbb02493cbeea377ULL},
    {0x1.d414fb5017b7dp+8, 0x6ed151b22efeab86ULL},
    {0x1.b281543a4ca39p+8, 0x627ae8b273700d89ULL},
    {0x1.ebb7453f39defp+8, 0x1f90b47ce3f3d18dULL},
    {0x1.80ea71a4c2765p+10, 0x9405568dd8359f49ULL},
    {0x1.c90a06fd7894ep+10, 0xa628d2e2d8213112ULL},
    {0x1.89eb6fc396f62p+10, 0x7009c58bf2f93346ULL},
    {0x1.d22f217a79f97p+10, 0xbb34870bece7110fULL},
    {0x1.c160e16d7fae7p+10, 0xf536b7ac446e1d0bULL},
    {0x1.0448ad8448bfep+11, 0x246f5068aeb394f0ULL},
    {0x1.ca24a13672e06p+10, 0xa111bc6ec2ff04c8ULL},
    {0x1.08b7a4aa32a23p+11, 0x42c687767618a5caULL},
    {0x1.b4f93a773fdedp+10, 0xccf1274fe60ebe63ULL},
    {0x1.cb5c7598e77p+10, 0x35b56a240281348fULL},
    {0x1.bd6b2dc356e8p+10, 0x1fddd1f5f7a5ccfaULL},
    {0x1.d3ea8b59bc54bp+10, 0x324f65673a0bbab3ULL},
    {0x1.6139966ae959ap+10, 0xbe03085ecc40b152ULL},
    {0x1.7199184f18f76p+10, 0x21171c95b1e6e14eULL},
    {0x1.6893d5786a33dp+10, 0xbd20bae23c12be72ULL},
    {0x1.791020123e9e7p+10, 0xf5e1494469e8a81bULL},
    {0x1.37481d97d5107p+9, 0xddec3dff02e70e9aULL},
    {0x1.51556580d87acp+9, 0x0d47b087478d176bULL},
    {0x1.4207389836574p+9, 0x9a8a7ff258bcbdadULL},
    {0x1.5c6e8bc3874ecp+9, 0x1373222eef889e33ULL},
    {0x1.f6cdb7239a7ep+10, 0xd30add0a507721ceULL},
    {0x1.063957dd0898bp+11, 0x9ba5358be8791eaeULL},
    {0x1.ff2fc95ea3b95p+10, 0x4d7de7d14ba3f534ULL},
    {0x1.0a76d4496bcefp+11, 0xc11673561ffae186ULL},
    {0x1.ec6b28f39868ep+10, 0xb8e9bcb775b45c56ULL},
    {0x1.028cdf5ae0084p+11, 0xd9fe7ba7d197a372ULL},
    {0x1.f4887bf923ee1p+10, 0x92a6774bb360ae19ULL},
    {0x1.06a7b0f7adecbp+11, 0x3cd6a66b71c8c6f5ULL},
    {0x1.b3601aee57e1ep+10, 0x985b40cb8f850ba4ULL},
    {0x1.cbfc05f37df7ap+10, 0x9949d65865d9e8edULL},
    {0x1.bbe36cd39097ap+10, 0xc8a22736baba7a8fULL},
    {0x1.d4a396ab80384p+10, 0x85f4817fe28321caULL},
    {0x1.61483e6d65216p+10, 0x70ddd7d3913570e3ULL},
    {0x1.71a1920c1b7ccp+10, 0xf0cc2f14c84c18b6ULL},
    {0x1.68a29d983ce45p+10, 0xb6b97e0b6e653f0dULL},
    {0x1.7918aecf21838p+10, 0xed27aa05e1626029ULL},
    {0x1.37481d97d5107p+9, 0xddec3dff02e70e9aULL},
    {0x1.51556580d87acp+9, 0x0d47b087478d176bULL},
    {0x1.4207389836574p+9, 0x9a8a7ff258bcbdadULL},
    {0x1.5c6e8bc3874ecp+9, 0x1373222eef889e33ULL},
    {0x1.f6471415d1624p+10, 0xa83fe864dd5d4a61ULL},
    {0x1.0685f45f47545p+11, 0x5857a3a28d9697b8ULL},
    {0x1.feac547984bd6p+10, 0xfd5a6a9d61a8eaafULL},
    {0x1.0ac5617820f65p+11, 0xc85f5f784a9c73c7ULL},
    {0x1.eec4532881261p+10, 0x65c9c9486be16f02ULL},
    {0x1.069398d7292a2p+11, 0x4ba6d0f3444186e5ULL},
    {0x1.f725471057426p+10, 0xc6d753518b81df04ULL},
    {0x1.0ad0e1760b845p+11, 0xe57e6a04ebfbdd8aULL},
    {0x1.0375261c8781cp+12, 0x542704cf33a04541ULL},
    {0x1.0375261c8781cp+12, 0x542704cf33a04541ULL},
    {0x1.04e1690a0cb5ap+12, 0x9f1c951c5f2b3470ULL},
    {0x1.04e1690a0cb5ap+12, 0x9f1c951c5f2b3470ULL},
    {0x1.9ece2526168e8p+11, 0xc0f66bc1285a1e7bULL},
    {0x1.9ece2526168e8p+11, 0xc0f66bc1285a1e7bULL},
    {0x1.a13c6c498cfddp+11, 0x2439a7b9c38f3310ULL},
    {0x1.a13c6c498cfddp+11, 0x2439a7b9c38f3310ULL},
    {0x1.b6451233e1acfp+10, 0xe9263fdad9a91118ULL},
    {0x1.b6451233e1acfp+10, 0xe9263fdad9a91118ULL},
    {0x1.b96b534638747p+10, 0xa4668f41ddfe7058ULL},
    {0x1.b96b534638747p+10, 0xa4668f41ddfe7058ULL},
    {0x1.113da52a6b8dap+12, 0x7ea6f901cc33b628ULL},
    {0x1.113da52a6b8dap+12, 0x7ea6f901cc33b628ULL},
    {0x1.12ba8117bc1f9p+12, 0xe492d5a6f53ed0eaULL},
    {0x1.12ba8117bc1f9p+12, 0xe492d5a6f53ed0eaULL},
    {0x1.03aa3d70a3d6ep+12, 0xd24601ba473aafe6ULL},
    {0x1.03aa3d70a3d6ep+12, 0xd24601ba473aafe6ULL},
    {0x1.051843c9eecbdp+12, 0x91483390c0bf2c02ULL},
    {0x1.051843c9eecbdp+12, 0x91483390c0bf2c02ULL},
    {0x1.7e3b3cfe70794p+11, 0x4df728ec99c0584bULL},
    {0x1.8105e7a91b23dp+11, 0x68bffdf3b77f71b6ULL},
    {0x1.819ff70a72138p+11, 0x66887a60b1727fc5ULL},
    {0x1.847ea47029b69p+11, 0x0e8315e6947f802fULL},
    {0x1.310a6be84b973p+11, 0x2f95b86b8601edd9ULL},
    {0x1.33b1e35fc30eap+11, 0x33e2abd0c0a7cd59ULL},
    {0x1.33dba461bdeeap+11, 0xc0ba0c294b3785b5ULL},
    {0x1.36962243fa47ap+11, 0xd8816cb64106e3aaULL},
    {0x1.4000766a332d5p+10, 0xc179be55458d07abULL},
    {0x1.450f6559221c4p+10, 0x45c1448e18e9c05fULL},
    {0x1.4396325ffe7fbp+10, 0x3d1d8c6e9e5cfbacULL},
    {0x1.48c96363f41f5p+10, 0xb1254897da7b8593ULL},
    {0x1.923bfa03fd3c5p+11, 0x1424a7f99e38d4d5ULL},
    {0x1.94f9d7e1db1a4p+11, 0xed5cf2e68374b881ULL},
    {0x1.95c25874ce7cp+11, 0xb099c19e4a3d802fULL},
    {0x1.9893dd4d9f1b9p+11, 0xab2d864639b9b492ULL},
    {0x1.77a121d093d1ap+11, 0x763d25a5408ea711ULL},
    {0x1.7ab232e1a4e29p+11, 0xd6e1ebdee622b932ULL},
    {0x1.7b0e6d5851a0ap+11, 0x9680aa3eadfe808bULL},
    {0x1.7e3523c0e7448p+11, 0xa23b17a747a7ccebULL},
    {0x1.969711469a4fdp+10, 0x3af236bed240e2c1ULL},
    {0x1.da16905ef4fafp+10, 0x4ee41818c99d0760ULL},
    {0x1.9f5046e395f72p+10, 0xbcfd0e009473912dULL},
    {0x1.e2ee6194988f5p+10, 0x84ce851d1e556584ULL},
    {0x1.3e7ea18f9a59fp+10, 0xe2f911ec0f51d330ULL},
    {0x1.6e232843e93fdp+10, 0x684e533db5dc5479ULL},
    {0x1.462dfa10d27cfp+10, 0x9c00209421476b41ULL},
    {0x1.75f186d8f0426p+10, 0x490620c6613814cbULL},
    {0x1.c42e8fc92887fp+8, 0xede306a3816ed3b4ULL},
    {0x1.fe455fe8a892p+8, 0xc4b30f7b1ed3ee72ULL},
    {0x1.db24d60a506e9p+8, 0x8a9bd6af660f8d5aULL},
    {0x1.0af5eea0deabcp+9, 0x4fe30793066d7137ULL},
    {0x1.e9bb9b847b937p+10, 0x2c7e43ad9f603e05ULL},
    {0x1.1f84474c322ep+11, 0xb0ca0ab8b61bde0cULL},
    {0x1.f25ab70f14aa3p+10, 0x80397bb7db3b4ac4ULL},
    {0x1.23e172972ef51p+11, 0x93149f3e0a4a6029ULL},
    {0x1.dc86973319p+10, 0x5681217229dd6b32ULL},
    {0x1.14a26a47b1eaep+11, 0x12ac0b8b71d2c68fULL},
    {0x1.e4eeeaa6549dcp+10, 0xd019dda6398263e3ULL},
    {0x1.18e5e6cc74a64p+11, 0xad47fec7fe427c06ULL},
};

TEST(EnginePin, SchedulesAreFeasible) {
  for (const std::unique_ptr<PinSet>& s : PinSets()) {
    const FeasibilityReport report = VerifyWorstCase(s->fps, s->schedule,
                                                     s->cpu);
    EXPECT_TRUE(report.feasible) << report.detail;
  }
}

TEST(EnginePin, LedgerBitsMatchRecordedPins) {
  const std::vector<PinCase> grid = PinGrid();
  ASSERT_EQ(grid.size(), std::size(kPins));
  int preempting = 0;
  int sleeping = 0;
  int stalling = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SimResult r = RunCase(grid[i]);
    char actual[96];
    std::snprintf(actual, sizeof(actual), "{%a, 0x%016llxULL},",
                  r.total_energy,
                  static_cast<unsigned long long>(Fingerprint(r)));
    EXPECT_EQ(r.total_energy, kPins[i].total_energy)
        << Label(grid[i]) << " actual " << actual;
    EXPECT_EQ(Fingerprint(r), kPins[i].fingerprint)
        << Label(grid[i]) << " actual " << actual;
    preempting += r.preemptions > 0;
    sleeping += r.sleeps > 0;
    stalling += r.stall_time > 0.0;
  }
  // The grid exercises the paths it claims to pin.
  EXPECT_GT(preempting, 0);
  EXPECT_GT(sleeping, 0);
  EXPECT_GT(stalling, 0);
}

}  // namespace
}  // namespace dvs::sim
