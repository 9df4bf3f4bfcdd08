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
//                hash x DvsModel parameter hash) -> the file name and the
//                workspace's lookup key;
//   on a hit   every key match is re-verified by SameSolveInputs against
//                the *exact* values (structural task-set equality, concrete
//                model parameters), and each planned solve inside the
//                entry is additionally keyed by its
//                PlanningPoint (exact values + chain ancestry) when
//                core::MethodContext looks it up — so a hash collision, a
//                renamed file or a foreign cache degrades to a re-solve,
//                never to a wrong reuse.
//
// Invalidation is by construction: anything that can change a solve's bits
// is either part of the key (task set, model parameters, planning point,
// chain) or covered by kSolveStoreSchemaVersion, which must be bumped
// whenever solver arithmetic, the solver configuration (core::AcsAlmOptions
// and the opt::AlmOptions / opt::SpgOptions defaults it keeps) or the
// serialization layout changes.
// Only the linear law is planned (core::PlanningModel), so every entry
// describes a LinearDvsModel; DescribeModel rejects any other model.
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

/// Bump on ANY change to the entry layout, to solver arithmetic or to the
/// solver configuration that can alter solve bits: version-mismatched files
/// are rejected wholesale.  Editing any value core::AcsAlmOptions returns,
/// or any opt::AlmOptions / opt::SpgOptions default it keeps, needs a bump.
/// Version 2: WCS results come from the exact solver (under the linear
/// model) and carry its duality-gap certificate.  Version 3: the scheduler
/// options carry no ACS warm-start byte (ACS always starts from the WCS).
/// Version 4: entries carry no solver options; the configuration is the
/// constant core::AcsAlmOptions, covered by this version.  Version 5: ACS
/// and point-planned results come from the converged Newton solve
/// (opt/replay_newton.h), whose constants this version also covers.
/// Version 6: that solve is primal-dual (its results moved within the KKT
/// tolerance, and to other local optima on some sets).  Version 7: a
/// stored calibration keeps its draws once.  Version 8: a WCS solve whose
/// certified gap misses the solver's target keeps its exact schedule
/// instead of falling back to the ALM.  Version 9: the exact WCS solve runs
/// on the primal-dual driver from any start (its results moved within the
/// certified gap, and sets it could not start before are solved exactly).
inline constexpr std::uint32_t kSolveStoreSchemaVersion = 9;

/// Concrete-parameter description of a planning model — the model's
/// content identity in both solve caches: the LinearDvsModel's exact
/// constructor parameters (vmin, vmax, ceff, k).  Entries store them after
/// the linear law's tag byte (kLinearTag); an entry with any other tag is
/// rejected on read.
struct ModelDescriptor {
  static constexpr std::uint8_t kLinearTag = 1;

  std::vector<double> params;

  friend bool operator==(const ModelDescriptor& a, const ModelDescriptor& b) {
    if (a.params.size() != b.params.size()) {
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

/// Throws util::InvalidArgumentError for a model core::PlanningModel
/// rejects.
ModelDescriptor DescribeModel(const model::DvsModel& dvs);

/// Content fingerprints (FNV-1a over the canonical serialization).
std::uint64_t TaskSetFingerprint(const model::TaskSet& set);
std::uint64_t ModelFingerprint(const ModelDescriptor& model);

/// The entry key = content identity of one (task set, model) cell under the
/// current schema version: the store's file name and EvalWorkspace's
/// lookup key.
std::uint64_t SolveStoreEntryKey(const model::TaskSet& set,
                                 const ModelDescriptor& model);

/// Exact structural equality (names, periods, and bitwise-equal cycle
/// demands).
bool SameTaskSet(const model::TaskSet& a, const model::TaskSet& b);

/// The hit condition of every solve cache: an equal model descriptor and a
/// structurally identical task set.  A key match that fails this degrades
/// to a rebuild, never to a wrong result.
bool SameSolveInputs(const model::TaskSet& a_set, const ModelDescriptor& a_model,
                     const model::TaskSet& b_set, const ModelDescriptor& b_model);

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

/// Everything one cache entry holds: the exact-verify material (set and
/// model descriptor) plus the solves and calibrations.
struct StoredCell {
  explicit StoredCell(model::TaskSet set) : set(std::move(set)) {}

  model::TaskSet set;
  ModelDescriptor model;
  std::optional<StoredScheduleResult> wcs;
  std::optional<StoredScheduleResult> acs;
  std::optional<StoredSchedule> vmax_asap;
  std::vector<StoredPlannedSolve> planned;
  std::vector<StoredCalibration> calibrations;

  std::uint64_t EntryKey() const {
    return SolveStoreEntryKey(set, model);
  }
};

/// Snapshot of a SolveCache for persistence.  Calibration entries without a
/// persist key (direct-API callers that never set ExperimentOptions::
/// scenario_key) are skipped — their scenario identity cannot be restored.
StoredCell MakeStoredCell(const model::TaskSet& set,
                          const ModelDescriptor& model,
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
/// bad magic, schema version mismatch, checksum mismatch, truncation or a
/// model tag other than the linear one.
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
  /// structure and model parameters).  Counts persist.cache_hits /
  /// cache_misses / verify_rejects; a rejected file (corrupt, truncated,
  /// wrong schema version, foreign fingerprint) is reported as both a
  /// reject and a miss and never aborts the run.
  std::optional<StoredCell> Load(const model::TaskSet& set,
                                 const ModelDescriptor& model) const;

  /// The same lookup for callers that still pass the setting-free
  /// SchedulerOptions; it plays no part in the identity.
  std::optional<StoredCell> Load(const model::TaskSet& set,
                                 const ModelDescriptor& model,
                                 const SchedulerOptions& scheduler) const;

  /// Same, under the caller's already computed
  /// `key` = SolveStoreEntryKey(set, model).
  std::optional<StoredCell> Load(std::uint64_t key, const model::TaskSet& set,
                                 const ModelDescriptor& model) const;

  /// Merges `cell` into the in-memory write-back set (thread-safe): missing
  /// wcs/acs/vmax slots fill, planned solves union by (point, chain),
  /// calibrations union by their full key tuple.
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
