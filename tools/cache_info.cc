// Solve-cache inspector: lists a --cache-dir's entries without touching
// them.
//
//   cache_info --dir=grid_cache
//
// Opens the directory read-only (no writer LOCK), walks every *.acsc entry
// file and prints one row per entry: the content key, the file size, the
// stored task set's shape, which whole-set solves are present (wcs / acs /
// vmax-asap) and how many planned solves and scenario calibrations the
// entry carries.  Files that fail structural validation — bad magic,
// truncation, checksum mismatch, a foreign schema version — or whose
// embedded key disagrees with the file name (a renamed or foreign cache
// file) are reported with the reason instead of aborting, exactly the
// classes SolveStore::Load rejects at run time.
//
// Exit status is 0 when every entry parsed cleanly, 1 when any entry was
// rejected (so CI can smoke a cache dir), 2 on usage errors.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/eval_workspace.h"
#include "core/solve_store.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace dvs;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ACS_REQUIRE(in.good(), "cannot open entry file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string KeyHex(std::uint64_t key) {
  std::ostringstream out;
  out << std::hex << key;
  std::string digits = out.str();
  return std::string(16 - digits.size(), '0') + digits;
}

int Run(int argc, const char* const* argv) {
  std::string dir;
  std::int64_t budget =
      static_cast<std::int64_t>(core::EvalWorkspace::kDefaultPreparedBudgetBytes);

  util::ArgParser parser("cache_info",
                         "List the entries of a persistent solve-cache "
                         "directory (core/solve_store.h) without locking or "
                         "modifying it.");
  parser.AddString("dir", &dir, "cache directory to inspect (required)");
  parser.AddInt("budget", &budget,
                "prepared-cache byte budget to flag oversized entries "
                "against (default: the workspace default)");
  if (!parser.Parse(argc, argv)) {
    return EXIT_SUCCESS;
  }
  if (dir.empty()) {
    std::cerr << "cache_info: --dir is required\n" << parser.Usage();
    return 2;
  }

  const core::SolveStore store(dir, /*read_only=*/true);
  const std::vector<std::uint64_t> keys = store.DiskKeys();
  std::cout << "solve cache " << dir << ": " << keys.size() << " entr"
            << (keys.size() == 1 ? "y" : "ies") << " (schema version "
            << core::kSolveStoreSchemaVersion << ")\n\n";

  util::TextTable table({"key", "bytes", "tasks", "wcs", "acs", "vmax",
                         "planned", "calibrations", "budget"});
  std::size_t rejected = 0;
  std::size_t oversized = 0;
  for (std::uint64_t key : keys) {
    const std::string path = store.EntryPath(key);
    std::string reason;
    try {
      const std::string bytes = ReadFileBytes(path);
      const core::StoredCell cell = core::DeserializeStoredCell(bytes);
      if (cell.EntryKey() != key) {
        reason = "foreign fingerprint (file name does not match content)";
      } else {
        // Serialized size is the inspector's proxy for resident footprint
        // (ApproxBytes needs the restored expansion).  An entry alone above
        // the budget is admitted charge-exempt by EvalWorkspace and can
        // never persist in the prepared cache alongside others.
        const bool over =
            bytes.size() > static_cast<std::size_t>(std::max<std::int64_t>(
                               0, budget));
        if (over) {
          ++oversized;
        }
        table.AddRow({KeyHex(key), std::to_string(bytes.size()),
                      std::to_string(cell.set.size()),
                      cell.wcs.has_value() ? "yes" : "-",
                      cell.acs.has_value() ? "yes" : "-",
                      cell.vmax_asap.has_value() ? "yes" : "-",
                      std::to_string(cell.planned.size()),
                      std::to_string(cell.calibrations.size()),
                      over ? "OVER" : "-"});
        continue;
      }
    } catch (const util::Error& error) {
      reason = error.what();
    }
    ++rejected;
    table.AddRow({KeyHex(key), "REJECTED: " + reason, "", "", "", "", "", "",
                  ""});
  }
  std::cout << table.Render();
  if (oversized > 0) {
    std::cout << "\n" << oversized << " entr" << (oversized == 1 ? "y" : "ies")
              << " exceed" << (oversized == 1 ? "s" : "")
              << " the prepared-cache byte budget (" << budget
              << " bytes) — resident charge-exempt, never cached alongside "
                 "other entries\n";
  }
  if (rejected > 0) {
    std::cout << "\n" << rejected << " entr" << (rejected == 1 ? "y" : "ies")
              << " rejected — a run pointed at this directory re-solves "
                 "them\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const dvs::util::Error& error) {
    std::cerr << "cache_info: " << error.what() << "\n";
    return 2;
  }
}
