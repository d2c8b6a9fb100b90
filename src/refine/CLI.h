//===- refine/CLI.h - Shared tool command-line parsing ----------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag parser for every alive-* tool. The tools used to duplicate the
/// argv loop for the flags that map onto refine::Options — and the copies
/// diverged: alive-tv validated values, alive-opt and alive-corpus ran them
/// through atoi and silently accepted garbage. This parser owns the shared
/// flags (--unroll, --timeout, --equivalence, --cache-dir,
/// --no-query-cache, --retry, --deadline, --mem-limit; -j/--jobs where a
/// tool is parallel; and the observability flags --stats, --trace-out FILE
/// and --profile-out FILE where a tool opts in, together with their set-up
/// and tear-down); tools offer each argv slot to it first and
/// keep only their tool-specific flags. Malformed values are diagnosed on
/// stderr and the tool exits 2.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_REFINE_CLI_H
#define ALIVE2RE_REFINE_CLI_H

#include "refine/Refinement.h"

#include <cstdio>
#include <string>

namespace alive::refine::cli {

/// Parses a non-negative integer; rejects trailing garbage ("3x") and
/// negative values. Semantic range checks (e.g. a zero unroll factor) are
/// Options::validate()'s job, not the flag parser's.
bool parseUnsigned(const char *S, unsigned &Out);

/// Parses a decimal number (seconds); range-checked by Options::validate().
bool parseDouble(const char *S, double &Out);

/// Parses a wall-clock duration into seconds: a plain number means seconds,
/// and an "ms" / "s" / "m" / "h" suffix scales it ("30s", "1.5m", "250ms").
bool parseDuration(const char *S, double &Out);

/// Outcome of offering one argv slot to the shared parser.
enum class Parsed {
  NotMine, ///< not a shared flag: the tool handles it
  Ok,      ///< consumed (possibly together with its value)
  Error,   ///< shared flag with a bad/missing value; diagnostic printed
};

/// Usage lines for the shared flags, each "  --flag ...\n", for a tool to
/// splice into its own usage() output. \p IncludeJobs adds the -j line,
/// \p IncludeObservability the observability flags.
std::string optionsUsage(bool IncludeJobs, bool IncludeObservability = false);

/// The observability flags of a tool that opts in.
class Observability {
public:
  /// Opens the --trace-out file; starts span collection for --stats,
  /// --profile-out or \p CollectSpans (a tool's own span consumer).
  /// \returns false after a diagnostic when the file cannot be opened.
  bool start(bool CollectSpans = false);

  /// Prints the --stats tables (registry counters, per-phase profile) to
  /// \p Tables, writes the --profile-out file and closes the trace; every
  /// exit after start() returns through here. \returns \p RC, or 2 on a
  /// write failure.
  int finish(int RC, std::FILE *Tables);

private:
  friend class OptionsParser;
  bool Stats = false;
  const char *TraceOut = nullptr, *ProfileOut = nullptr;
};

class OptionsParser {
public:
  /// \p Jobs enables -j/--jobs and \p Obs the observability flags; pass
  /// null to leave them out.
  explicit OptionsParser(Options &Opts, unsigned *Jobs = nullptr,
                         Observability *Obs = nullptr)
      : Opts(Opts), Jobs(Jobs), Obs(Obs) {}

  /// Offers argv[\p I] to the parser; consuming a flag's value advances
  /// \p I. On Error the diagnostic is already on stderr — return 2.
  Parsed consume(int Argc, char **Argv, int &I);

  /// Runs Options::validate() after the argv loop and prints the
  /// diagnostic on failure — a false return means exit 2.
  bool validate() const;

private:
  Options &Opts;
  unsigned *Jobs;
  Observability *Obs;
};

} // namespace alive::refine::cli

#endif // ALIVE2RE_REFINE_CLI_H
