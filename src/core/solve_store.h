// Persistent content-addressed solve cache.
//
// A grid run's expensive artifacts — the WCS / ACS / Vmax-ASAP solves, the
// scenario-conditioned planned solves (with their warm-start chain
// ancestry) and the scenario calibrations cached per task set in
// core::SolveCache — are all deterministic functions of their inputs.  The
// SolveStore serialises them to a binary, versioned, fingerprint-keyed
// directory (`--cache-dir`) so a later process re-running the same grid,
// extending an axis, or picking up a different shard window only solves
// genuinely new cells.
//
// Keying and verification are shared with the in-memory cache
// (core::EvalWorkspace::Prepare): one content identity serves memory and
// disk.
//
//   entry key  = SolveStoreEntryKey: FNV(schema version x task-set content
//                hash x DvsModel parameter hash x solver-option hash) ->
//                the file name and the workspace's lookup key;
//   on a hit   every key match is re-verified by SameSolveInputs against
//                the *exact* values (structural task-set equality, concrete
//                model parameters, every solver option field), and each
//                planned solve inside the entry is additionally keyed by its
//                PlanningPoint (exact values + chain ancestry) when
//                core::MethodContext looks it up — so a hash collision, a
//                renamed file or a foreign cache degrades to a re-solve,
//                never to a wrong reuse.
//
// Invalidation is by construction: anything that can change a solve's bits
// is either part of the key (task set, model parameters, solver options,
// planning point, chain) or covered by kSolveStoreSchemaVersion, which must
// be bumped whenever solver arithmetic or the serialization layout changes.
// DvsModel subclasses unknown to DescribeModel have no content identity:
// they are never cached across calls (Load/Absorb become no-ops and
// Prepare never hits) — an unknown model can never alias a known one.
//
// Concurrency: one writer per directory, enforced with an O_EXCL LOCK file
// (two shards pointed at the same writable cache dir hard-error; read-only
// opens skip the lock, which is the shared pre-seed flow tools/shard_grid
// documents).  Absorb() is thread-safe; Load() is safe from any number of
// threads.  Write-back happens once, after the grid's workers have joined.
#ifndef ACS_CORE_SOLVE_STORE_H
#define ACS_CORE_SOLVE_STORE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "model/power_model.h"
#include "model/task.h"
#include "workload/calibrator.h"

namespace dvs::fps {
class FullyPreemptiveSchedule;
}  // namespace dvs::fps

namespace dvs::core {

/// Bump on ANY change to the entry layout or to solver arithmetic that can
/// alter solve bits: version-mismatched files are rejected wholesale.
/// Version 2: WCS results come from the exact solver (under the linear
/// model) and carry its duality-gap certificate.  Version 3: the scheduler
/// options carry no ACS warm-start byte (ACS always starts from the WCS).
inline constexpr std::uint32_t kSolveStoreSchemaVersion = 3;

/// Concrete-parameter description of a DvsModel — the model's content
/// identity in both solve caches.  DescribeModel recognises the three
/// library models by dynamic_cast and records their exact constructor
/// parameters; an unknown subclass yields tag 0 (not persistable), so
/// probing SpeedAt at sample points — which could alias two models that
/// merely agree at the probes — is never used as identity.
struct ModelDescriptor {
  std::uint8_t tag = 0;  // 0 unknown, 1 linear, 2 alpha, 3 discrete
  std::vector<double> params;

  bool Persistable() const { return tag != 0; }

  friend bool operator==(const ModelDescriptor& a, const ModelDescriptor& b) {
    if (a.tag != b.tag || a.params.size() != b.params.size()) {
      return false;
    }
    // Bitwise, not arithmetic, equality: 0.0 vs -0.0 are different models.
    for (std::size_t i = 0; i < a.params.size(); ++i) {
      if (BitsOf(a.params[i]) != BitsOf(b.params[i])) {
        return false;
      }
    }
    return true;
  }
  friend bool operator!=(const ModelDescriptor& a, const ModelDescriptor& b) {
    return !(a == b);
  }

  static std::uint64_t BitsOf(double value);
};

ModelDescriptor DescribeModel(const model::DvsModel& dvs);

/// Content fingerprints (FNV-1a over the canonical serialization).
std::uint64_t TaskSetFingerprint(const model::TaskSet& set);
std::uint64_t ModelFingerprint(const ModelDescriptor& model);
std::uint64_t SchedulerOptionsFingerprint(const SchedulerOptions& options);

/// The entry key = content identity of one (task set, model, solver
/// options) cell under the current schema version: the store's file name
/// and EvalWorkspace's lookup key.  0 when the model is not persistable —
/// the caches' universal "skip me" value.
std::uint64_t SolveStoreEntryKey(const model::TaskSet& set,
                                 const ModelDescriptor& model,
                                 const SchedulerOptions& scheduler);

/// Exact structural equality (names, periods, and bitwise-equal cycle
/// demands).
bool SameTaskSet(const model::TaskSet& a, const model::TaskSet& b);

/// Exact (bitwise) equality of every solver-relevant field, including the
/// nested ALM/SPG options.
bool SameSchedulerOptions(const SchedulerOptions& a, const SchedulerOptions& b);

/// The hit condition of every solve cache: a persistable model with an
/// equal descriptor, equal scheduler options and a structurally identical
/// task set.  A key match that fails this degrades to a rebuild, never to
/// a wrong result; a tag-0 model matches nothing.
bool SameSolveInputs(const model::TaskSet& a_set, const ModelDescriptor& a_model,
                     const SchedulerOptions& a_scheduler,
                     const model::TaskSet& b_set, const ModelDescriptor& b_model,
                     const SchedulerOptions& b_scheduler);

/// Serializable mirror of sim::StaticSchedule (reconstructed against the
/// loader's own FPS expansion).
struct StoredSchedule {
  std::vector<double> end_times;
  std::vector<double> worst_budgets;
};

/// Serializable mirror of core::ScheduleResult.
struct StoredScheduleResult {
  StoredSchedule schedule;
  double predicted_energy = 0.0;
  opt::AlmReport alm;
  bool used_fallback = false;
  std::optional<GapCertificate> certificate;
};

/// One planned solve: the exact PlanningPoint, its warm-start chain
/// ancestry and the result — the same triple the in-memory
/// SolveCache::PlannedSolve verifies on hit.
struct StoredPlannedSolve {
  PlanningPoint planning;
  std::vector<PlanningPoint> chain;
  StoredScheduleResult result;
};

/// One scenario calibration, identified by the scenario's registry *name*
/// (pointer identity cannot persist; see SolveCache::CalibrationEntry::
/// persist_key) plus the full in-memory key tuple.
struct StoredCalibration {
  std::string scenario_key;
  double sigma_divisor = 0.0;
  std::uint64_t seed = 0;
  std::int64_t samples = 0;
  workload::Calibration calibration;
};

/// Everything one cache entry holds: the exact-verify material (set, model
/// descriptor, solver options) plus the solves and calibrations.
struct StoredCell {
  explicit StoredCell(model::TaskSet set) : set(std::move(set)) {}

  model::TaskSet set;
  ModelDescriptor model;
  SchedulerOptions scheduler;
  std::optional<StoredScheduleResult> wcs;
  std::optional<StoredScheduleResult> acs;
  std::optional<StoredSchedule> vmax_asap;
  std::vector<StoredPlannedSolve> planned;
  std::vector<StoredCalibration> calibrations;

  std::uint64_t EntryKey() const {
    return SolveStoreEntryKey(set, model, scheduler);
  }
};

/// Snapshot of a SolveCache for persistence.  Calibration entries without a
/// persist key (direct-API callers that never set ExperimentOptions::
/// scenario_key) are skipped — their scenario identity cannot be restored.
StoredCell MakeStoredCell(const model::TaskSet& set,
                          const ModelDescriptor& model,
                          const SchedulerOptions& scheduler,
                          const SolveCache& solves);

/// Rebuilds a SolveCache from a verified StoredCell: StaticSchedules are
/// reconstructed against `fps` (which the caller built from the verified
/// set), restored calibrations carry a null scenario pointer plus the
/// persist key, and only empty slots are filled.  Throws util::Error when a
/// stored schedule's length does not match fps.sub_count() — callers treat
/// that as a verify-reject.
void RestoreSolveCache(const StoredCell& stored,
                       const fps::FullyPreemptiveSchedule& fps,
                       SolveCache& solves);

/// Full entry file image: magic, schema version, entry key, payload,
/// FNV-1a payload checksum.
std::string SerializeStoredCell(const StoredCell& cell);

/// Parses and structurally validates an entry file; throws util::Error on a
/// bad magic, schema version mismatch, checksum mismatch or truncation.
/// (Key and exact-value verification against the *requesting* cell is the
/// caller's second step — see SolveStore::Load.)
StoredCell DeserializeStoredCell(const std::string& bytes);

class SolveStore {
 public:
  /// Opens (creating if needed) cache directory `dir`.  A writable open
  /// takes the directory's LOCK file exclusively and throws util::Error
  /// when another writer holds it — the two-shards-one-cache-dir
  /// hard-error.  A read-only open never locks and never writes (the
  /// shared pre-seed flow).
  explicit SolveStore(std::string dir, bool read_only = false);
  ~SolveStore();

  SolveStore(const SolveStore&) = delete;
  SolveStore& operator=(const SolveStore&) = delete;

  const std::string& dir() const { return dir_; }
  bool read_only() const { return read_only_; }

  /// Looks the cell up by content key — first among this process's absorbed
  /// entries, then on disk — and verifies every match exactly (task set
  /// structure, model parameters, every solver option).  Counts
  /// persist.cache_hits / cache_misses / verify_rejects; a rejected file
  /// (corrupt, truncated, wrong schema version, foreign fingerprint) is
  /// reported as both a reject and a miss and never aborts the run.
  std::optional<StoredCell> Load(const model::TaskSet& set,
                                 const ModelDescriptor& model,
                                 const SchedulerOptions& scheduler) const;

  /// Same, under the caller's already computed
  /// `key` = SolveStoreEntryKey(set, model, scheduler).
  std::optional<StoredCell> Load(std::uint64_t key, const model::TaskSet& set,
                                 const ModelDescriptor& model,
                                 const SchedulerOptions& scheduler) const;

  /// Merges `cell` into the in-memory write-back set (thread-safe): missing
  /// wcs/acs/vmax slots fill, planned solves union by (point, chain),
  /// calibrations union by their full key tuple.  Cells with a
  /// non-persistable model are dropped.
  void Absorb(StoredCell cell);

  std::size_t AbsorbedCount() const;

  /// Writes every absorbed entry to disk (merging with any existing file
  /// first, so concurrent *runs* — serialised by the LOCK — accumulate),
  /// via tmp-file + rename.  Returns the number of files written; counts
  /// persist.write_backs.  No-op in read-only mode.
  std::size_t WriteBack();

  /// Keys of the entry files currently on disk, sorted (tools/cache_info).
  std::vector<std::uint64_t> DiskKeys() const;

  /// "<key as %016x>.acsc".
  static std::string EntryFileName(std::uint64_t key);

  std::string EntryPath(std::uint64_t key) const;

 private:
  std::string dir_;
  bool read_only_;
  bool locked_ = false;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, StoredCell> absorbed_;
};

}  // namespace dvs::core

#endif  // ACS_CORE_SOLVE_STORE_H
