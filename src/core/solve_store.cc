#include "core/solve_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "fps/expansion.h"
#include "obs/metrics.h"
#include "util/binary_io.h"
#include "util/error.h"

namespace dvs::core {
namespace {

constexpr char kMagic[4] = {'A', 'C', 'S', 'C'};

/// Metric charge that also works in the quiescent phases (store open,
/// write-back on the main thread after the workers joined): the thread-
/// local shard when one is scoped, else shard 0 of the installed registry.
void CountPersist(obs::MetricId id, std::int64_t delta = 1) {
  if (delta == 0) {
    return;
  }
  if (obs::ActiveShard() != nullptr) {
    obs::Count(id, delta);
    return;
  }
  obs::MetricsRegistry* registry = obs::ActiveMetrics();
  if (registry != nullptr) {
    registry->EnsureShards(1);
    registry->Shard(0).Count(id, delta);
  }
}

// --- Canonical payload serialization ---------------------------------------

void WriteTaskSet(util::BinaryWriter& out, const model::TaskSet& set) {
  out.U64(set.size());
  for (const model::Task& task : set.tasks()) {
    out.Str(task.name);
    out.I64(task.period);
    out.F64(task.wcec);
    out.F64(task.acec);
    out.F64(task.bcec);
  }
}

model::TaskSet ReadTaskSet(util::BinaryReader& in) {
  const std::uint64_t count = in.U64();
  std::vector<model::Task> tasks;
  tasks.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    model::Task task;
    task.name = in.Str();
    task.period = in.I64();
    task.wcec = in.F64();
    task.acec = in.F64();
    task.bcec = in.F64();
    tasks.push_back(std::move(task));
  }
  return model::TaskSet(std::move(tasks));  // re-validates on read
}

void WriteModel(util::BinaryWriter& out, const ModelDescriptor& model) {
  out.U8(ModelDescriptor::kLinearTag);
  out.VecF64(model.params);
}

ModelDescriptor ReadModel(util::BinaryReader& in) {
  const std::uint8_t tag = in.U8();
  if (tag != ModelDescriptor::kLinearTag) {
    throw util::Error("solve-store entry: model tag " + std::to_string(tag) +
                      " is not the linear law (tag 1)");
  }
  ModelDescriptor model;
  model.params = in.VecF64();
  return model;
}

void WritePoint(util::BinaryWriter& out, const PlanningPoint& point) {
  out.VecF64(point.cycles);
  out.VecVecF64(point.mixture);
}

PlanningPoint ReadPoint(util::BinaryReader& in) {
  PlanningPoint point;
  point.cycles = in.VecF64();
  point.mixture = in.VecVecF64();
  return point;
}

void WriteSchedule(util::BinaryWriter& out, const StoredSchedule& schedule) {
  out.VecF64(schedule.end_times);
  out.VecF64(schedule.worst_budgets);
}

StoredSchedule ReadSchedule(util::BinaryReader& in) {
  StoredSchedule schedule;
  schedule.end_times = in.VecF64();
  schedule.worst_budgets = in.VecF64();
  return schedule;
}

void WriteResult(util::BinaryWriter& out, const StoredScheduleResult& r) {
  WriteSchedule(out, r.schedule);
  out.F64(r.predicted_energy);
  out.U8(r.used_fallback ? 1 : 0);
  const opt::AlmReport& alm = r.alm;
  out.U8(alm.feasible ? 1 : 0);
  out.U8(static_cast<std::uint8_t>(alm.inner_status));
  out.U64(alm.outer_iterations);
  out.U64(alm.total_inner_iterations);
  out.U64(alm.evaluations);
  out.F64(alm.final_value);
  out.F64(alm.max_violation);
  out.F64(alm.final_penalty);
  out.VecF64(alm.multipliers);
  out.U8(r.certificate.has_value() ? 1 : 0);
  if (r.certificate.has_value()) {
    out.F64(r.certificate->primal);
    out.F64(r.certificate->dual);
    out.F64(r.certificate->relative_gap);
  }
}

StoredScheduleResult ReadResult(util::BinaryReader& in) {
  StoredScheduleResult r;
  r.schedule = ReadSchedule(in);
  r.predicted_energy = in.F64();
  r.used_fallback = in.U8() != 0;
  opt::AlmReport& alm = r.alm;
  alm.feasible = in.U8() != 0;
  const std::uint8_t status = in.U8();
  if (status > static_cast<std::uint8_t>(opt::SolveStatus::kLineSearchFailed)) {
    throw util::Error("solve-store entry corrupt: solve status " +
                      std::to_string(status));
  }
  alm.inner_status = static_cast<opt::SolveStatus>(status);
  alm.outer_iterations = static_cast<std::size_t>(in.U64());
  alm.total_inner_iterations = static_cast<std::size_t>(in.U64());
  alm.evaluations = static_cast<std::size_t>(in.U64());
  alm.final_value = in.F64();
  alm.max_violation = in.F64();
  alm.final_penalty = in.F64();
  alm.multipliers = in.VecF64();
  if (in.U8() != 0) {
    GapCertificate certificate;
    certificate.primal = in.F64();
    certificate.dual = in.F64();
    certificate.relative_gap = in.F64();
    r.certificate = certificate;
  }
  return r;
}

void WriteCalibration(util::BinaryWriter& out, const StoredCalibration& c) {
  out.Str(c.scenario_key);
  out.F64(c.sigma_divisor);
  out.U64(c.seed);
  out.I64(c.samples);
  out.I64(c.calibration.samples_per_task);
  out.VecF64(c.calibration.mean);
  out.VecF64(c.calibration.stddev);
  // `sorted` is rebuilt from `draws` on read (Calibration::SortDraws).
  out.VecVecF64(c.calibration.draws);
}

StoredCalibration ReadCalibration(util::BinaryReader& in) {
  StoredCalibration c;
  c.scenario_key = in.Str();
  c.sigma_divisor = in.F64();
  c.seed = in.U64();
  c.samples = in.I64();
  c.calibration.samples_per_task = in.I64();
  c.calibration.mean = in.VecF64();
  c.calibration.stddev = in.VecF64();
  c.calibration.draws = in.VecVecF64();
  c.calibration.SortDraws();
  return c;
}

std::string SerializePayload(const StoredCell& cell) {
  util::BinaryWriter out;
  WriteTaskSet(out, cell.set);
  WriteModel(out, cell.model);
  out.U8(cell.wcs.has_value() ? 1 : 0);
  if (cell.wcs.has_value()) {
    WriteResult(out, *cell.wcs);
  }
  out.U8(cell.acs.has_value() ? 1 : 0);
  if (cell.acs.has_value()) {
    WriteResult(out, *cell.acs);
  }
  out.U8(cell.vmax_asap.has_value() ? 1 : 0);
  if (cell.vmax_asap.has_value()) {
    WriteSchedule(out, *cell.vmax_asap);
  }
  out.U64(cell.planned.size());
  for (const StoredPlannedSolve& solve : cell.planned) {
    WritePoint(out, solve.planning);
    out.U64(solve.chain.size());
    for (const PlanningPoint& link : solve.chain) {
      WritePoint(out, link);
    }
    WriteResult(out, solve.result);
  }
  out.U64(cell.calibrations.size());
  for (const StoredCalibration& calibration : cell.calibrations) {
    WriteCalibration(out, calibration);
  }
  return out.bytes();
}

StoredCell ParsePayload(util::BinaryReader& in) {
  StoredCell cell(ReadTaskSet(in));
  cell.model = ReadModel(in);
  if (in.U8() != 0) {
    cell.wcs = ReadResult(in);
  }
  if (in.U8() != 0) {
    cell.acs = ReadResult(in);
  }
  if (in.U8() != 0) {
    cell.vmax_asap = ReadSchedule(in);
  }
  const std::uint64_t planned = in.U64();
  cell.planned.reserve(static_cast<std::size_t>(planned));
  for (std::uint64_t i = 0; i < planned; ++i) {
    StoredPlannedSolve solve;
    solve.planning = ReadPoint(in);
    const std::uint64_t links = in.U64();
    solve.chain.reserve(static_cast<std::size_t>(links));
    for (std::uint64_t j = 0; j < links; ++j) {
      solve.chain.push_back(ReadPoint(in));
    }
    solve.result = ReadResult(in);
    cell.planned.push_back(std::move(solve));
  }
  const std::uint64_t calibrations = in.U64();
  cell.calibrations.reserve(static_cast<std::size_t>(calibrations));
  for (std::uint64_t i = 0; i < calibrations; ++i) {
    cell.calibrations.push_back(ReadCalibration(in));
  }
  return cell;
}

// --- Merging ---------------------------------------------------------------

bool HasPlanned(const StoredCell& cell, const StoredPlannedSolve& solve) {
  for (const StoredPlannedSolve& mine : cell.planned) {
    if (mine.planning == solve.planning && mine.chain == solve.chain) {
      return true;
    }
  }
  return false;
}

bool HasCalibration(const StoredCell& cell, const StoredCalibration& c) {
  for (const StoredCalibration& mine : cell.calibrations) {
    if (mine.scenario_key == c.scenario_key &&
        mine.sigma_divisor == c.sigma_divisor && mine.seed == c.seed &&
        mine.samples == c.samples) {
      return true;
    }
  }
  return false;
}

/// Logical union: fill missing slots, append unseen planned solves and
/// calibrations.  Because every solve is a deterministic function of its
/// key, "first writer wins" on an already-present entry merges bit-equal
/// values — the file's content is deterministic whatever the worker or
/// thread count that produced the pieces.
void MergeCells(StoredCell& into, const StoredCell& from) {
  if (!into.wcs.has_value() && from.wcs.has_value()) {
    into.wcs = from.wcs;
  }
  if (!into.acs.has_value() && from.acs.has_value()) {
    into.acs = from.acs;
  }
  if (!into.vmax_asap.has_value() && from.vmax_asap.has_value()) {
    into.vmax_asap = from.vmax_asap;
  }
  for (const StoredPlannedSolve& solve : from.planned) {
    if (!HasPlanned(into, solve)) {
      into.planned.push_back(solve);
    }
  }
  for (const StoredCalibration& calibration : from.calibrations) {
    if (!HasCalibration(into, calibration)) {
      into.calibrations.push_back(calibration);
    }
  }
}

// --- Filesystem helpers ----------------------------------------------------

bool ReadFileBytes(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

/// mkdir -p without <filesystem> (portable across the toolchain matrix).
void MakeDirs(const std::string& dir) {
  std::string path;
  std::size_t begin = 0;
  while (begin <= dir.size()) {
    const std::size_t slash = dir.find('/', begin);
    const std::size_t end = slash == std::string::npos ? dir.size() : slash;
    path = dir.substr(0, end);
    begin = end + 1;
    if (path.empty() || path == ".") {
      continue;
    }
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      throw util::Error("cannot create cache directory \"" + path +
                        "\": " + std::strerror(errno));
    }
  }
  struct stat info {};
  if (::stat(dir.c_str(), &info) != 0 || !S_ISDIR(info.st_mode)) {
    throw util::Error("cache path \"" + dir + "\" is not a directory");
  }
}

StoredScheduleResult StoreResult(const ScheduleResult& result) {
  StoredScheduleResult stored;
  stored.schedule.end_times = result.schedule.end_times();
  stored.schedule.worst_budgets = result.schedule.worst_budgets();
  stored.predicted_energy = result.predicted_energy;
  stored.alm = result.alm;
  stored.alm.inner_status = result.alm.inner_status;
  stored.used_fallback = result.used_fallback;
  stored.certificate = result.certificate;
  return stored;
}

ScheduleResult RestoreResult(const StoredScheduleResult& stored,
                             const fps::FullyPreemptiveSchedule& fps) {
  if (stored.schedule.end_times.size() != fps.sub_count() ||
      stored.schedule.worst_budgets.size() != fps.sub_count()) {
    throw util::Error("solve-store schedule length mismatch: stored " +
                      std::to_string(stored.schedule.end_times.size()) +
                      " sub-instances, expansion has " +
                      std::to_string(fps.sub_count()));
  }
  return ScheduleResult{sim::StaticSchedule(fps, stored.schedule.end_times,
                                            stored.schedule.worst_budgets),
                        stored.predicted_energy, stored.alm,
                        stored.used_fallback, stored.certificate};
}

}  // namespace

std::uint64_t ModelDescriptor::BitsOf(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

ModelDescriptor DescribeModel(const model::DvsModel& dvs) {
  const model::LinearDvsModel& linear = PlanningModel(dvs);
  ModelDescriptor descriptor;
  descriptor.params = {linear.vmin(), linear.vmax(), linear.ceff(),
                       linear.k()};
  return descriptor;
}

std::uint64_t TaskSetFingerprint(const model::TaskSet& set) {
  util::BinaryWriter out;
  WriteTaskSet(out, set);
  return util::Fnv1a(out.bytes());
}

std::uint64_t ModelFingerprint(const ModelDescriptor& model) {
  util::BinaryWriter out;
  WriteModel(out, model);
  return util::Fnv1a(out.bytes());
}

bool SameTaskSet(const model::TaskSet& a, const model::TaskSet& b) {
  if (a.size() != b.size() || a.hyper_period() != b.hyper_period()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const model::Task& ta = a.task(i);
    const model::Task& tb = b.task(i);
    if (ta.name != tb.name || ta.period != tb.period || ta.wcec != tb.wcec ||
        ta.acec != tb.acec || ta.bcec != tb.bcec) {
      return false;
    }
  }
  return true;
}

bool SameSolveInputs(const model::TaskSet& a_set, const ModelDescriptor& a_model,
                     const model::TaskSet& b_set,
                     const ModelDescriptor& b_model) {
  return a_model == b_model && SameTaskSet(a_set, b_set);
}

std::uint64_t SolveStoreEntryKey(const model::TaskSet& set,
                                 const ModelDescriptor& model) {
  util::BinaryWriter out;
  out.U32(kSolveStoreSchemaVersion);
  out.U64(TaskSetFingerprint(set));
  out.U64(ModelFingerprint(model));
  return util::Fnv1a(out.bytes());
}

StoredCell MakeStoredCell(const model::TaskSet& set,
                          const ModelDescriptor& model,
                          const SolveCache& solves) {
  StoredCell cell(set);
  cell.model = model;
  if (solves.wcs.has_value()) {
    cell.wcs = StoreResult(*solves.wcs);
  }
  if (solves.acs.has_value()) {
    cell.acs = StoreResult(*solves.acs);
  }
  if (solves.vmax_asap.has_value()) {
    StoredSchedule schedule;
    schedule.end_times = solves.vmax_asap->end_times();
    schedule.worst_budgets = solves.vmax_asap->worst_budgets();
    cell.vmax_asap = std::move(schedule);
  }
  for (const std::unique_ptr<SolveCache::PlannedSolve>& solve :
       solves.planned) {
    StoredPlannedSolve stored;
    stored.planning = solve->planning;
    stored.chain = solve->chain;
    stored.result = StoreResult(solve->result);
    cell.planned.push_back(std::move(stored));
  }
  for (const std::unique_ptr<SolveCache::CalibrationEntry>& entry :
       solves.calibrations) {
    if (entry->persist_key.empty()) {
      continue;  // direct-API entry: no persistable scenario identity
    }
    StoredCalibration stored;
    stored.scenario_key = entry->persist_key;
    stored.sigma_divisor = entry->sigma_divisor;
    stored.seed = entry->seed;
    stored.samples = entry->samples;
    stored.calibration = entry->calibration;
    cell.calibrations.push_back(std::move(stored));
  }
  return cell;
}

void RestoreSolveCache(const StoredCell& stored,
                       const fps::FullyPreemptiveSchedule& fps,
                       SolveCache& solves) {
  if (!solves.wcs.has_value() && stored.wcs.has_value()) {
    solves.wcs = RestoreResult(*stored.wcs, fps);
  }
  if (!solves.acs.has_value() && stored.acs.has_value()) {
    solves.acs = RestoreResult(*stored.acs, fps);
  }
  if (!solves.vmax_asap.has_value() && stored.vmax_asap.has_value()) {
    if (stored.vmax_asap->end_times.size() != fps.sub_count() ||
        stored.vmax_asap->worst_budgets.size() != fps.sub_count()) {
      throw util::Error("solve-store vmax schedule length mismatch");
    }
    solves.vmax_asap = sim::StaticSchedule(fps, stored.vmax_asap->end_times,
                                           stored.vmax_asap->worst_budgets);
  }
  for (const StoredPlannedSolve& solve : stored.planned) {
    bool present = false;
    for (const std::unique_ptr<SolveCache::PlannedSolve>& mine :
         solves.planned) {
      if (mine->planning == solve.planning && mine->chain == solve.chain) {
        present = true;
        break;
      }
    }
    if (!present) {
      solves.planned.push_back(std::make_unique<SolveCache::PlannedSolve>(
          solve.planning.Fingerprint(), solve.planning, solve.chain,
          RestoreResult(solve.result, fps)));
    }
  }
  for (const StoredCalibration& calibration : stored.calibrations) {
    if (calibration.scenario_key.empty()) {
      continue;
    }
    bool present = false;
    for (const std::unique_ptr<SolveCache::CalibrationEntry>& mine :
         solves.calibrations) {
      if (mine->persist_key == calibration.scenario_key &&
          mine->sigma_divisor == calibration.sigma_divisor &&
          mine->seed == calibration.seed &&
          mine->samples == calibration.samples) {
        present = true;
        break;
      }
    }
    if (!present) {
      solves.calibrations.push_back(
          std::make_unique<SolveCache::CalibrationEntry>(
              SolveCache::CalibrationEntry{
                  nullptr, calibration.sigma_divisor, calibration.seed,
                  calibration.samples, calibration.calibration,
                  calibration.scenario_key}));
    }
  }
}

std::string SerializeStoredCell(const StoredCell& cell) {
  const std::string payload = SerializePayload(cell);
  util::BinaryWriter out;
  out.Raw(std::string(kMagic, sizeof(kMagic)));
  out.U32(kSolveStoreSchemaVersion);
  out.U64(cell.EntryKey());
  out.U64(payload.size());
  out.Raw(payload);
  out.U64(util::Fnv1a(payload));
  return out.bytes();
}

StoredCell DeserializeStoredCell(const std::string& bytes) {
  util::BinaryReader in(bytes);
  if (in.remaining() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw util::Error("solve-store entry: bad magic");
  }
  util::BinaryReader header(bytes.data() + sizeof(kMagic),
                            bytes.size() - sizeof(kMagic));
  const std::uint32_t version = header.U32();
  if (version != kSolveStoreSchemaVersion) {
    throw util::Error("solve-store entry: schema version " +
                      std::to_string(version) + ", expected " +
                      std::to_string(kSolveStoreSchemaVersion));
  }
  const std::uint64_t embedded_key = header.U64();
  const std::uint64_t payload_size = header.U64();
  if (payload_size > header.remaining()) {
    throw util::Error("solve-store entry: truncated payload");
  }
  const std::size_t payload_offset = sizeof(kMagic) + header.offset();
  const std::string payload =
      bytes.substr(payload_offset, static_cast<std::size_t>(payload_size));
  util::BinaryReader tail(bytes.data() + payload_offset + payload.size(),
                          bytes.size() - payload_offset - payload.size());
  const std::uint64_t checksum = tail.U64();
  if (checksum != util::Fnv1a(payload)) {
    throw util::Error("solve-store entry: checksum mismatch");
  }
  util::BinaryReader body(payload);
  StoredCell cell = ParsePayload(body);
  if (!body.AtEnd()) {
    throw util::Error("solve-store entry: trailing payload bytes");
  }
  if (cell.EntryKey() != embedded_key) {
    throw util::Error("solve-store entry: content does not match its key");
  }
  return cell;
}

SolveStore::SolveStore(std::string dir, bool read_only)
    : dir_(std::move(dir)), read_only_(read_only) {
  ACS_REQUIRE(!dir_.empty(), "solve-store directory must be non-empty");
  while (dir_.size() > 1 && dir_.back() == '/') {
    dir_.pop_back();
  }
  if (read_only_) {
    struct stat info {};
    if (::stat(dir_.c_str(), &info) != 0 || !S_ISDIR(info.st_mode)) {
      throw util::Error("read-only cache dir \"" + dir_ +
                        "\" does not exist");
    }
    return;
  }
  MakeDirs(dir_);
  // One writer per directory: O_EXCL is the atomic claim.  A crashed
  // writer leaves a stale LOCK behind; the error message names the file so
  // the operator can remove it deliberately.
  const std::string lock = dir_ + "/LOCK";
  const int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    throw util::Error(
        "cache dir \"" + dir_ +
        "\" already has a writer (remove " + lock +
        " if no other process is running, or open the cache read-only "
        "for shared pre-seeding)");
  }
  const std::string pid = std::to_string(::getpid()) + "\n";
  // The content is informational only; a short write still leaves a valid
  // lock.
  (void)!::write(fd, pid.data(), pid.size());
  ::close(fd);
  locked_ = true;
}

SolveStore::~SolveStore() {
  if (locked_) {
    std::remove((dir_ + "/LOCK").c_str());
  }
}

std::string SolveStore::EntryFileName(std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.acsc",
                static_cast<unsigned long long>(key));
  return name;
}

std::string SolveStore::EntryPath(std::uint64_t key) const {
  return dir_ + "/" + EntryFileName(key);
}

std::optional<StoredCell> SolveStore::Load(
    const model::TaskSet& set, const ModelDescriptor& model) const {
  return Load(SolveStoreEntryKey(set, model), set, model);
}

std::optional<StoredCell> SolveStore::Load(
    const model::TaskSet& set, const ModelDescriptor& model,
    const SchedulerOptions& /*scheduler*/) const {
  return Load(set, model);
}

std::optional<StoredCell> SolveStore::Load(
    std::uint64_t key, const model::TaskSet& set,
    const ModelDescriptor& model) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = absorbed_.find(key);
    if (it != absorbed_.end() &&
        SameSolveInputs(it->second.set, it->second.model, set, model)) {
      CountPersist(obs::metric::kPersistHits);
      return it->second;
    }
  }
  std::string bytes;
  if (!ReadFileBytes(EntryPath(key), &bytes)) {
    CountPersist(obs::metric::kPersistMisses);
    return std::nullopt;
  }
  try {
    StoredCell cell = DeserializeStoredCell(bytes);
    if (!SameSolveInputs(cell.set, cell.model, set, model)) {
      // Foreign fingerprint: a structurally valid file that answers a
      // different question (renamed file, colliding key, stale grid).
      CountPersist(obs::metric::kPersistRejects);
      CountPersist(obs::metric::kPersistMisses);
      return std::nullopt;
    }
    CountPersist(obs::metric::kPersistHits);
    return cell;
  } catch (const util::Error&) {
    // Corrupt / truncated / wrong-schema file: reject, never abort.
    CountPersist(obs::metric::kPersistRejects);
    CountPersist(obs::metric::kPersistMisses);
    return std::nullopt;
  }
}

void SolveStore::Absorb(StoredCell cell) {
  const std::uint64_t key = cell.EntryKey();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = absorbed_.find(key);
  if (it == absorbed_.end()) {
    absorbed_.emplace(key, std::move(cell));
    return;
  }
  MergeCells(it->second, cell);
}

std::size_t SolveStore::AbsorbedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return absorbed_.size();
}

std::size_t SolveStore::WriteBack() {
  if (read_only_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t written = 0;
  for (auto& [key, cell] : absorbed_) {
    const std::string path = EntryPath(key);
    std::string bytes;
    if (ReadFileBytes(path, &bytes)) {
      try {
        const StoredCell disk = DeserializeStoredCell(bytes);
        if (SameSolveInputs(disk.set, disk.model, cell.set, cell.model)) {
          MergeCells(cell, disk);  // accumulate across runs
        }
      } catch (const util::Error&) {
        // Unreadable on-disk entry: overwrite it with the fresh one.
        CountPersist(obs::metric::kPersistRejects);
      }
    }
    const std::string image = SerializeStoredCell(cell);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw util::Error("cannot write cache file \"" + tmp + "\"");
      }
      out.write(image.data(),
                static_cast<std::streamsize>(image.size()));
      if (!out) {
        throw util::Error("short write to cache file \"" + tmp + "\"");
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw util::Error("cannot rename \"" + tmp + "\" to \"" + path + "\"");
    }
    ++written;
  }
  CountPersist(obs::metric::kPersistWriteBacks,
               static_cast<std::int64_t>(written));
  return written;
}

std::vector<std::uint64_t> SolveStore::DiskKeys() const {
  std::vector<std::uint64_t> keys;
  DIR* handle = ::opendir(dir_.c_str());
  if (handle == nullptr) {
    return keys;
  }
  while (const struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() != 21 || name.substr(16) != ".acsc") {
      continue;
    }
    char* end = nullptr;
    const unsigned long long key = std::strtoull(name.c_str(), &end, 16);
    if (end == name.c_str() + 16) {
      keys.push_back(static_cast<std::uint64_t>(key));
    }
  }
  ::closedir(handle);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace dvs::core
