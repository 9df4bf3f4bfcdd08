#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace dvs::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::Register(const std::string& name, Kind kind, void* target,
                         const std::string& help, std::string default_text) {
  ACS_REQUIRE(!name.empty() && name[0] != '-',
              "option names are registered without leading dashes");
  ACS_REQUIRE(options_.find(name) == options_.end(),
              "duplicate option: " + name);
  ACS_REQUIRE(target != nullptr, "option target must not be null");
  options_[name] = Option{kind, target, help, std::move(default_text)};
  order_.push_back(name);
}

void ArgParser::AddFlag(const std::string& name, bool* target,
                        const std::string& help) {
  Register(name, Kind::kFlag, target, help, *target ? "true" : "false");
}

void ArgParser::AddInt(const std::string& name, std::int64_t* target,
                       const std::string& help) {
  Register(name, Kind::kInt, target, help, std::to_string(*target));
}

void ArgParser::AddDouble(const std::string& name, double* target,
                          const std::string& help) {
  Register(name, Kind::kDouble, target, help, FormatDouble(*target, 4));
}

void ArgParser::AddString(const std::string& name, std::string* target,
                          const std::string& help) {
  Register(name, Kind::kString, target, help,
           target->empty() ? "\"\"" : *target);
}

void ArgParser::Assign(const std::string& name, Option& option,
                       const std::string& value) {
  switch (option.kind) {
    case Kind::kFlag: {
      const std::string lower = ToLower(value);
      if (lower == "true" || lower == "1" || lower == "yes") {
        *static_cast<bool*>(option.target) = true;
      } else if (lower == "false" || lower == "0" || lower == "no") {
        *static_cast<bool*>(option.target) = false;
      } else {
        throw InvalidArgumentError("bad boolean for --" + name + ": " + value);
      }
      return;
    }
    case Kind::kInt: {
      // strtoll saturates silently on overflow; errno is the only signal.
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        throw InvalidArgumentError("bad integer for --" + name + ": " + value);
      }
      *static_cast<std::int64_t*>(option.target) = parsed;
      return;
    }
    case Kind::kDouble: {
      char* end = nullptr;
      // strtod also accepts "nan" and "inf"; no knob means either.
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed)) {
        throw InvalidArgumentError("bad number for --" + name + ": " + value);
      }
      *static_cast<double*>(option.target) = parsed;
      return;
    }
    case Kind::kString:
      *static_cast<std::string*>(option.target) = value;
      return;
  }
}

bool ArgParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::cout << Usage();
      return false;
    }
    if (!StartsWith(token, "--")) {
      throw InvalidArgumentError("unexpected positional argument: " + token);
    }
    token.erase(0, 2);
    std::string name = token;
    std::optional<std::string> value;
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      name = token.substr(0, eq);
      value = token.substr(eq + 1);
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw InvalidArgumentError("unknown option --" + name + "\n" + Usage());
    }
    Option& option = it->second;
    if (!value.has_value()) {
      if (option.kind == Kind::kFlag) {
        value = "true";
      } else {
        if (i + 1 >= argc) {
          throw InvalidArgumentError("missing value for --" + name);
        }
        value = argv[++i];
      }
    }
    Assign(name, option, *value);
  }
  return true;
}

std::vector<std::pair<std::string, std::string>> ArgParser::Values() const {
  std::vector<std::pair<std::string, std::string>> values;
  std::vector<const void*> seen;
  for (const std::string& name : order_) {
    const Option& option = options_.at(name);
    if (std::find(seen.begin(), seen.end(), option.target) != seen.end()) {
      continue;  // an alias: listed under its first name
    }
    seen.push_back(option.target);
    std::string text;
    switch (option.kind) {
      case Kind::kFlag:
        text = *static_cast<const bool*>(option.target) ? "true" : "false";
        break;
      case Kind::kInt:
        text = std::to_string(*static_cast<const std::int64_t*>(option.target));
        break;
      case Kind::kDouble: {
        // The shortest %g text that parses back to the same double.
        const double value = *static_cast<const double*>(option.target);
        char buffer[32];
        for (int digits = 15; digits <= 17; ++digits) {
          std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
          if (std::strtod(buffer, nullptr) == value) {
            break;
          }
        }
        text = buffer;
        break;
      }
      case Kind::kString:
        text = *static_cast<const std::string*>(option.target);
        break;
    }
    values.emplace_back(name, std::move(text));
  }
  return values;
}

std::string ArgParser::Usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const std::string& name : order_) {
    const Option& option = options_.at(name);
    out << "  --" << PadRight(name, 24) << option.help
        << " (default: " << option.default_text << ")\n";
  }
  out << "  --" << PadRight("help", 24) << "show this message\n";
  return out.str();
}

}  // namespace dvs::util
