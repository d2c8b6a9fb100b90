//===- refine/CLI.cpp - Shared tool command-line parsing ---------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "refine/CLI.h"
#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace alive;
using namespace alive::refine;
using namespace alive::refine::cli;

bool cli::parseUnsigned(const char *S, unsigned &Out) {
  errno = 0;
  char *End = nullptr;
  long V = std::strtol(S, &End, 10);
  if (End == S || *End != '\0' || errno == ERANGE || V < 0 || V > 0x7fffffff)
    return false;
  Out = (unsigned)V;
  return true;
}

bool cli::parseDouble(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool cli::parseDuration(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || errno == ERANGE)
    return false;
  double Scale = 1;
  if (!std::strcmp(End, "ms"))
    Scale = 1e-3;
  else if (!std::strcmp(End, "s") || !*End)
    Scale = 1;
  else if (!std::strcmp(End, "m"))
    Scale = 60;
  else if (!std::strcmp(End, "h"))
    Scale = 3600;
  else
    return false;
  Out = V * Scale;
  return true;
}

std::string cli::optionsUsage(bool IncludeJobs, bool IncludeObservability) {
  std::string U;
  if (IncludeJobs)
    U += "  -j N             verify pairs on N parallel workers "
         "(0 = one per hardware thread)\n";
  U += "  --unroll N       loop unroll bound (default 2)\n"
       "  --timeout SEC    per-SMT-query solver budget in seconds\n"
       "  --equivalence    check plain equivalence instead of refinement\n"
       "  --cache-dir DIR  persist the result cache to DIR/alive2re.cache "
       "(warm runs skip\n"
       "                   unchanged pairs and report them as cached)\n"
       "  --no-query-cache disable the result cache entirely\n"
       "  --retry N        budget-escalation ladder: retry timed-out pairs "
       "up to N times,\n"
       "                   multiplying the solver budget by 4 per rung "
       "(default 0 = off)\n"
       "  --deadline DUR   total wall-clock deadline for the whole run "
       "(\"30s\", \"5m\");\n"
       "                   pairs not dispatched in time are reported as "
       "deadline-skipped\n"
       "  --mem-limit MB   memory watchdog: cancel the longest-running pair "
       "when process\n"
       "                   RSS exceeds MB megabytes (0 = off)\n";
  if (IncludeObservability)
    U += "  --stats          print the registry counters and the per-phase "
         "profile table\n"
         "                   after the run\n"
         "  --trace-out FILE stream JSONL span and event records to FILE\n"
         "  --profile-out FILE  write a Chrome trace-event profile "
         "(Perfetto / chrome://tracing)\n";
  return U;
}

bool Observability::start(bool CollectSpans) {
  if (TraceOut && !trace::openFile(TraceOut)) {
    std::fprintf(stderr, "error: cannot open trace file '%s'\n", TraceOut);
    return false;
  }
  if (Stats || ProfileOut || CollectSpans)
    prof::start();
  return true;
}

int Observability::finish(int RC, std::FILE *Tables) {
  if (Stats) {
    std::fputs(stats::Registry::get().table().c_str(), Tables);
    std::fputs(prof::table().c_str(), Tables);
  }
  if (ProfileOut && !prof::writeChromeTrace(ProfileOut)) {
    std::fprintf(stderr, "error: cannot write profile file '%s'\n",
                 ProfileOut);
    RC = 2;
  }
  trace::close();
  return RC;
}

Parsed OptionsParser::consume(int Argc, char **Argv, int &I) {
  const char *A = Argv[I];
  // Fetches the flag's value slot; a missing one is an Error (so flags
  // never fall through to a tool's positional handling half-parsed).
  const char *Val = nullptr;
  auto value = [&]() {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s requires a value\n", A);
      return false;
    }
    Val = Argv[++I];
    return true;
  };

  if (!std::strcmp(A, "--unroll")) {
    if (!value())
      return Parsed::Error;
    if (!parseUnsigned(Val, Opts.UnrollFactor)) {
      std::fprintf(stderr, "error: --unroll expects an integer, got '%s'\n",
                   Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--timeout")) {
    if (!value())
      return Parsed::Error;
    if (!parseDouble(Val, Opts.Budget.TimeoutSec)) {
      std::fprintf(stderr,
                   "error: --timeout expects a number of seconds, got '%s'\n",
                   Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--equivalence")) {
    Opts.EquivalenceMode = true;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--cache-dir")) {
    if (!value())
      return Parsed::Error;
    if (!*Val) {
      std::fprintf(stderr, "error: --cache-dir expects a directory\n");
      return Parsed::Error;
    }
    Opts.Cache.Dir = Val;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--no-query-cache")) {
    // Levels only: a later --cache-dir must not be wiped (and vice versa a
    // kept Dir is inert while both levels are off).
    Opts.Cache.QueryLevel = Opts.Cache.PairLevel = false;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--retry")) {
    if (!value())
      return Parsed::Error;
    if (!parseUnsigned(Val, Opts.Retry.MaxRungs)) {
      std::fprintf(stderr, "error: --retry expects an integer, got '%s'\n",
                   Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--deadline")) {
    if (!value())
      return Parsed::Error;
    if (!parseDuration(Val, Opts.DeadlineSec)) {
      std::fprintf(
          stderr,
          "error: --deadline expects a duration (e.g. 30s, 5m), got '%s'\n",
          Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--mem-limit")) {
    if (!value())
      return Parsed::Error;
    unsigned Mb = 0;
    if (!parseUnsigned(Val, Mb)) {
      std::fprintf(stderr,
                   "error: --mem-limit expects an integer number of "
                   "megabytes, got '%s'\n",
                   Val);
      return Parsed::Error;
    }
    Opts.MaxRssBytes = (size_t)Mb << 20;
    return Parsed::Ok;
  }
  if (Obs && !std::strcmp(A, "--stats")) {
    Obs->Stats = true;
    return Parsed::Ok;
  }
  if (Obs && !std::strcmp(A, "--trace-out")) {
    if (!value())
      return Parsed::Error;
    Obs->TraceOut = Val;
    return Parsed::Ok;
  }
  if (Obs && !std::strcmp(A, "--profile-out")) {
    if (!value())
      return Parsed::Error;
    Obs->ProfileOut = Val;
    return Parsed::Ok;
  }
  if (Jobs && (!std::strcmp(A, "-j") || !std::strcmp(A, "--jobs"))) {
    if (!value())
      return Parsed::Error;
    if (!parseUnsigned(Val, *Jobs)) {
      std::fprintf(stderr, "error: %s expects an integer, got '%s'\n", A, Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  return Parsed::NotMine;
}

bool OptionsParser::validate() const {
  std::string Err = Opts.validate();
  if (Err.empty())
    return true;
  std::fprintf(stderr, "error: invalid options: %s\n", Err.c_str());
  return false;
}
