//===- support/Profile.h - Hierarchical thread-aware profiling --*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An RAII span subsystem attributing wall time and solver effort to the
/// phases of the verification pipeline (the telemetry behind the paper's
/// Figures 7-8 breakdowns). A closing span is the phase's only record.
/// Each thread keeps a thread_local stack of open spans, so spans nest
/// naturally:
///
///   verify_pair > unroll / encode / staged_query > ef_iteration > sat_check
///
/// A span records its wall time (steady clock) plus deltas of the
/// per-thread effort tally (SAT conflicts / decisions / propagations,
/// simplifier rewrites, SAT checks) between construction and destruction,
/// so solver work is *attributed* to the phase that incurred it. The tally
/// is thread_local and a pair is verified entirely on one thread (see
/// refine::Validator), so attribution stays exact under `-j N`; deltas are
/// inclusive of child spans.
///
/// A span is on while profiling is on (start()) or a trace sink is
/// attached (trace::enabled()). With profiling on, its close appends a
/// SpanRecord to the collected records; with a sink attached, its close
/// writes one JSONL line carrying its id, parent, detail, seconds, the
/// additive tally deltas and the fields the site attached through the
/// trace::Fields builder (str/num/flag).
///
/// Spans cross ThreadPool/Validator job boundaries explicitly: the
/// submitting thread captures a Context (current span id + path) at
/// fan-out, and the worker installs it with an Adopt guard, making the
/// batch span the parent of every per-pair span it spawned.
///
/// Everything is disabled by default. A disabled Span costs one atomic
/// load; the tally increments are unconditional plain thread_local adds.
///
/// Consumers (see also tools/check_trace.py and DESIGN.md):
///  * the JSONL trace (see Trace.h);
///  * writeChromeTrace() - Chrome trace-event JSON, loadable in Perfetto /
///    chrome://tracing, one track per worker thread;
///  * table() / aggregate() - per-phase count / total / mean / max / self
///    wall seconds (self = total minus time in child spans) and effort;
///  * setSlowQueryMs() - dumps the full span path and counter deltas of
///    any staged_query span exceeding the threshold.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_PROFILE_H
#define ALIVE2RE_SUPPORT_PROFILE_H

#include "support/Trace.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace alive::prof {

/// True while spans are being collected. Relaxed atomic load.
bool enabled();

/// Clears collected records, resets the epoch and enables collection.
void start();

/// Stops collection; records already gathered remain for the consumers.
void stop();

/// Drops every collected record (collection state unchanged).
void clear();

/// Dense per-thread id (0, 1, 2, ... in first-use order), independent of
/// profiling state. Shared with the JSONL "tid" field so JSONL traces and
/// Chrome tracks agree.
unsigned threadId();

namespace detail {
/// What a Span constructor loads: whether spans are collected into records
/// (start()/stop()) and whether a trace sink is attached (set by the sink's
/// attach/detach).
enum : unsigned { Collecting = 1, Tracing = 2 };
extern std::atomic<unsigned> Mode;
} // namespace detail

/// Per-thread running totals of solver effort, bumped unconditionally by
/// the instrumented layers (SatSolver::solve, Simplify's fold). This is the
/// only record of solver effort: spans, Effort scopes and everything built
/// on them (span records, QueryStats) read "tally after - tally before",
/// never the solver's own counters.
struct Tally {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t Rewrites = 0;
  uint64_t SatChecks = 0;
  /// Wall time inside SatSolver::solve.
  double SolveSeconds = 0;
  /// Largest clause database a solve has ended with since the innermost
  /// open Effort scope began. Not additive: Effort saves, zeroes and
  /// restores it.
  uint64_t ClausesPeak = 0;
};
Tally &tally();

/// The additive fields of "this thread's tally now - \p At0" (ClausesPeak
/// is left 0). The one delta routine behind spans and Effort scopes.
Tally since(const Tally &At0);

/// Solver effort over one scope (a staged query, for its QueryStats):
/// delta() is since() over the scope, with ClausesPeak the peak reached
/// inside it. Construction saves and zeroes the thread's peak; destruction
/// restores the larger of the saved and the inner peak, so enclosing scopes
/// still see it. Scopes must nest and stay on one thread (a pair never
/// migrates between threads).
class Effort {
public:
  Effort();
  ~Effort();

  Effort(const Effort &) = delete;
  Effort &operator=(const Effort &) = delete;

  Tally delta() const;

private:
  Tally At0;
};

/// One completed span.
struct SpanRecord {
  uint64_t Id = 0;
  /// Enclosing span (same thread, or adopted across a job boundary);
  /// 0 = top level.
  uint64_t Parent = 0;
  /// Static phase name ("verify_pair", "staged_query", ...).
  const char *Name = "";
  /// Dynamic label: function name, staged-check name, ... (may be empty).
  std::string Detail;
  unsigned Tid = 0;
  /// Start, seconds since the start() epoch.
  double StartSec = 0;
  double DurSec = 0;
  /// since() over the span's lifetime (inclusive of children).
  Tally Delta;
};

/// RAII span. Construction is one atomic load when the span is off; the
/// detail string is only copied when on. Fields attached through the
/// trace::Fields builder appear in the span's JSONL line only.
class Span : public trace::Fields {
public:
  explicit Span(const char *Name) : Span(Name, std::string_view()) {}
  // Inline, so a span that is off costs one load and one branch at each
  // end.
  Span(const char *Name, std::string_view Detail)
      : Fields(false), Name(Name) {
    if (unsigned M = detail::Mode.load(std::memory_order_acquire))
      open(M, Detail);
  }
  ~Span() {
    if (SpanId)
      close();
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// This span's id, 0 when the span is off.
  uint64_t id() const { return SpanId; }

private:
  void open(unsigned Mode, std::string_view Detail);
  void close();

  /// Profiling was on at construction: the close appends a SpanRecord.
  bool Collect = false;
  uint64_t SpanId = 0;
  uint64_t ParentId = 0;
  const char *Name = "";
  std::string Detail;
  double Start = 0;
  Tally At0;
};

/// Innermost open span on this thread (or the adopted parent when the
/// thread's own stack is empty); 0 when none. Feeds trace::Event's "span"
/// field.
uint64_t currentSpanId();

/// Captured span context for cross-thread propagation: take it on the
/// submitting thread, install it on the worker with Adopt.
struct Context {
  uint64_t SpanId = 0;
  /// ">"-joined names of the open spans, used by the slow-query log so a
  /// worker-side path still shows its batch-side prefix.
  std::string Path;
};
Context capture();

/// RAII guard installing a captured Context as this thread's inherited
/// parent; restores the previous inheritance on destruction (workers are
/// reused across jobs).
class Adopt {
public:
  explicit Adopt(const Context &Ctx);
  ~Adopt();

  Adopt(const Adopt &) = delete;
  Adopt &operator=(const Adopt &) = delete;

private:
  uint64_t PrevSpan;
  std::string PrevPath;
};

/// Slow-query log: any "staged_query" span whose duration meets \p Ms
/// milliseconds dumps its full span path and tally deltas when it ends.
/// Negative disables (the default).
void setSlowQueryMs(double Ms);

/// Redirects the slow-query log (test hook); nullptr restores stderr.
void setSlowQueryStream(std::ostream *OS);

/// Copy of every completed span so far.
std::vector<SpanRecord> snapshot();

/// Per-phase aggregation of the collected spans.
struct PhaseAgg {
  std::string Name;
  uint64_t Count = 0;
  double TotalSec = 0;
  double MeanSec = 0;
  double MaxSec = 0;
  /// Total minus time spent in child spans (clamped at 0: children of a
  /// parallel batch span can sum past their parent's wall time).
  double SelfSec = 0;
  /// Sum of the spans' Delta.
  Tally Delta;
};
std::vector<PhaseAgg> aggregate();

/// Human-readable per-phase table of aggregate(), every additive tally
/// field included (part of the --stats output).
std::string table();

/// Writes the collected spans as Chrome trace-event JSON (one complete "X"
/// event per span, one track per thread), loadable in Perfetto or
/// chrome://tracing. \returns false when the file cannot be opened.
bool writeChromeTrace(const std::string &Path);

} // namespace alive::prof

#endif // ALIVE2RE_SUPPORT_PROFILE_H
