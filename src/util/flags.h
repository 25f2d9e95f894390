#ifndef AUDIT_GAME_UTIL_FLAGS_H_
#define AUDIT_GAME_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::util {

/// Strict numeric token parsing: the whole token must be a valid number
/// (no trailing garbage — "12abc" is an error, not 12 — and no empty or
/// whitespace-padded tokens). Used by FlagParser's typed accessors and
/// available to any other input path that needs the same discipline.
StatusOr<int> ParseFullInt(const std::string& token);
StatusOr<double> ParseFullDouble(const std::string& token);

/// Tiny command-line flag parser for the benchmark harnesses and examples.
/// Supports `--name=value`, `--name value` and boolean `--name` forms.
/// Unknown flags are an error so typos in sweep parameters are caught.
class FlagParser {
 public:
  /// Declares a flag with a default value and help text. Returns *this for
  /// chaining.
  FlagParser& Define(const std::string& name, const std::string& default_value,
                     const std::string& help);

  /// Parses argv. On failure returns InvalidArgument with the offending
  /// token. `--help` is always accepted; after parsing, call help_requested().
  Status Parse(int argc, char** argv);

  /// True if `--help` was seen.
  bool help_requested() const { return help_requested_; }

  /// Renders the help text for all defined flags.
  std::string HelpString(const std::string& program) const;

  /// Typed accessors; the flag must have been defined. The numeric
  /// accessors validate the full token and exit(2) with a message naming
  /// the flag on a malformed value — a CLI tool must never run a sweep
  /// with "--budget=12abc" silently read as 12.
  std::string GetString(const std::string& name) const;
  int GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// GetInt with a lower bound: InvalidArgument naming the flag when the
  /// value is below `min`, so a tool refuses an out-of-range setting at
  /// start instead of clamping or wrapping it.
  StatusOr<int> GetIntAtLeast(const std::string& name, int min) const;

  /// Parses a comma-separated list of doubles (e.g. "--eps=0.1,0.2,0.3").
  /// An empty value yields an empty list; malformed elements exit(2).
  std::vector<double> GetDoubleList(const std::string& name) const;

  /// Parses a comma-separated list of ints.
  std::vector<int> GetIntList(const std::string& name) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace auditgame::util

#endif  // AUDIT_GAME_UTIL_FLAGS_H_
