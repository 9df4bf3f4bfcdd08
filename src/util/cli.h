// Tiny declarative CLI parser for benches and examples.
//
// Supports `--name=value`, `--name value` and boolean `--flag` forms plus an
// auto-generated --help.  Unknown flags are errors: every experiment knob is
// spelled out so runs are self-documenting.
#ifndef ACS_UTIL_CLI_H
#define ACS_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dvs::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers options; `help` appears in --help output.
  void AddFlag(const std::string& name, bool* target, const std::string& help);
  void AddInt(const std::string& name, std::int64_t* target,
              const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);

  /// Parses argv.  Returns false when --help was requested (usage already
  /// printed); throws InvalidArgumentError on malformed input, including
  /// non-finite doubles ("nan", "inf") and integers outside int64.
  bool Parse(int argc, const char* const* argv);

  std::string Usage() const;

  /// Every registered option with its current value as text, in
  /// registration order; an alias of an earlier option (same target) is
  /// left out, and doubles print in the shortest text that parses back
  /// exactly.  Read after Parse() to record how a run was configured.
  std::vector<std::pair<std::string, std::string>> Values() const;

  /// The program name given at construction (e.g. "bench_fig6a_random").
  const std::string& program() const { return program_; }

 private:
  enum class Kind { kFlag, kInt, kDouble, kString };
  struct Option {
    Kind kind;
    void* target;
    std::string help;
    std::string default_text;
  };

  void Register(const std::string& name, Kind kind, void* target,
                const std::string& help, std::string default_text);
  void Assign(const std::string& name, Option& option,
              const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

}  // namespace dvs::util

#endif  // ACS_UTIL_CLI_H
