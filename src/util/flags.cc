#include "util/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

namespace auditgame::util {
namespace {

// Reports a malformed flag value and terminates: flag accessors are called
// from CLI entry points where silently substituting a default (the old
// strtol-with-null-endptr behavior) corrupts whole sweeps.
[[noreturn]] void DieBadFlagValue(const std::string& name,
                                  const std::string& token,
                                  const Status& status) {
  std::cerr << "invalid value for --" << name << ": " << status.message()
            << " (got \"" << token << "\")\n";
  std::exit(2);
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : s) {
    if (c == ',') {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

}  // namespace

StatusOr<int> ParseFullInt(const std::string& token) {
  if (token.empty()) return InvalidArgumentError("empty integer token");
  // strtol skips leading whitespace; a flag token must not have any.
  if (std::isspace(static_cast<unsigned char>(token.front()))) {
    return InvalidArgumentError("not an integer");
  }
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    return InvalidArgumentError("not an integer");
  }
  if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return OutOfRangeError("integer out of range");
  }
  return static_cast<int>(value);
}

StatusOr<double> ParseFullDouble(const std::string& token) {
  if (token.empty()) return InvalidArgumentError("empty number token");
  // strtod skips leading whitespace; a flag token must not have any.
  if (std::isspace(static_cast<unsigned char>(token.front()))) {
    return InvalidArgumentError("not a number");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    return InvalidArgumentError("not a number");
  }
  // ERANGE covers both overflow and underflow; underflow still returns the
  // correct (sub)normal value, so only overflow is an error.
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    return OutOfRangeError("number out of range");
  }
  // strtod accepts "nan"/"inf"; no flag in this project means either, and
  // letting them through turns range guards like (0, 1) into no-ops.
  if (!std::isfinite(value)) {
    return InvalidArgumentError("not a finite number");
  }
  return value;
}

FlagParser& FlagParser::Define(const std::string& name,
                               const std::string& default_value,
                               const std::string& help) {
  flags_[name] = Flag{default_value, default_value, help};
  return *this;
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      help_requested_ = true;
      continue;
    }
    if (token.rfind("--", 0) != 0) {
      return InvalidArgumentError("unexpected positional argument: " + token);
    }
    token = token.substr(2);
    std::string name, value;
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      name = token.substr(0, eq);
      value = token.substr(eq + 1);
    } else {
      name = token;
      auto it = flags_.find(name);
      if (it == flags_.end()) return InvalidArgumentError("unknown flag: --" + name);
      // Boolean form `--name`, or `--name value`.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) return InvalidArgumentError("unknown flag: --" + name);
    it->second.value = value;
  }
  return OkStatus();
}

std::string FlagParser::HelpString(const std::string& program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n"
       << "      " << flag.help << "\n";
  }
  return os.str();
}

std::string FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? std::string() : it->second.value;
}

int FlagParser::GetInt(const std::string& name) const {
  const std::string token = GetString(name);
  auto value = ParseFullInt(token);
  if (!value.ok()) DieBadFlagValue(name, token, value.status());
  return *value;
}

double FlagParser::GetDouble(const std::string& name) const {
  const std::string token = GetString(name);
  auto value = ParseFullDouble(token);
  if (!value.ok()) DieBadFlagValue(name, token, value.status());
  return *value;
}

bool FlagParser::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  return v == "true" || v == "1" || v == "yes";
}

StatusOr<int> FlagParser::GetIntAtLeast(const std::string& name,
                                        int min) const {
  const int value = GetInt(name);
  if (value < min) {
    return InvalidArgumentError("--" + name + " must be at least " +
                                std::to_string(min) + ", got " +
                                std::to_string(value));
  }
  return value;
}

std::vector<double> FlagParser::GetDoubleList(const std::string& name) const {
  std::vector<double> result;
  for (const std::string& part : SplitComma(GetString(name))) {
    auto value = ParseFullDouble(part);
    if (!value.ok()) DieBadFlagValue(name, part, value.status());
    result.push_back(*value);
  }
  return result;
}

std::vector<int> FlagParser::GetIntList(const std::string& name) const {
  std::vector<int> result;
  for (const std::string& part : SplitComma(GetString(name))) {
    auto value = ParseFullInt(part);
    if (!value.ok()) DieBadFlagValue(name, part, value.status());
    result.push_back(*value);
  }
  return result;
}

}  // namespace auditgame::util
