//===- support/Profile.cpp - Hierarchical thread-aware profiling ------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Profile.h"

#include "support/Diag.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>

using namespace alive;
using namespace alive::prof;
using prof::detail::Collecting;
using prof::detail::Mode;

std::atomic<unsigned> prof::detail::Mode{0};

namespace {

std::atomic<uint64_t> NextSpanId{1};

std::mutex Mu;
std::vector<SpanRecord> Records; // guarded by Mu
const Stopwatch Clock;           // never reset: every span reads it
std::atomic<double> EpochSec{0}; // Clock reading at the last start()

std::atomic<double> SlowQueryMs{-1.0};
std::mutex SlowMu;
std::ostream *SlowSink = nullptr; // guarded by SlowMu; nullptr = stderr

/// One open span as seen by this thread's stack.
struct OpenSpan {
  uint64_t Id;
  const char *Name;
};

struct ThreadState {
  std::vector<OpenSpan> Stack;
  uint64_t InheritedParent = 0;
  std::string InheritedPath;
};

ThreadState &threadState() {
  thread_local ThreadState TS;
  return TS;
}

/// ">"-joined path of this thread's open spans, including any adopted
/// cross-thread prefix.
std::string currentPath() {
  ThreadState &TS = threadState();
  std::string Out = TS.InheritedPath;
  for (const OpenSpan &S : TS.Stack) {
    if (!Out.empty())
      Out += '>';
    Out += S.Name;
  }
  return Out;
}

void logSlowQuery(const SpanRecord &R) {
  char Nums[256];
  std::snprintf(Nums, sizeof Nums,
                "  conflicts=%" PRIu64 " decisions=%" PRIu64
                " propagations=%" PRIu64 " rewrites=%" PRIu64
                " sat_checks=%" PRIu64 "\n",
                R.Delta.Conflicts, R.Delta.Decisions, R.Delta.Propagations,
                R.Delta.Rewrites, R.Delta.SatChecks);
  char Head[64];
  std::snprintf(Head, sizeof Head, "[slow-query] %.1f ms  path=",
                R.DurSec * 1000.0);
  std::string Line = Head;
  std::string Path = currentPath();
  if (!Path.empty())
    Path += '>';
  Line += Path;
  Line += R.Name;
  Line += "  check=\"" + R.Detail + "\"";
  Line += Nums;
  std::lock_guard<std::mutex> Lock(SlowMu);
  if (SlowSink) {
    *SlowSink << Line;
    SlowSink->flush();
  } else {
    std::fputs(Line.c_str(), stderr);
  }
}

} // namespace

bool prof::enabled() {
  return Mode.load(std::memory_order_relaxed) & Collecting;
}

void prof::start() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Records.clear();
  }
  EpochSec.store(Clock.seconds(), std::memory_order_relaxed);
  Mode.fetch_or(Collecting, std::memory_order_release);
}

void prof::stop() { Mode.fetch_and(~Collecting, std::memory_order_release); }

void prof::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Records.clear();
}

unsigned prof::threadId() {
  static std::atomic<unsigned> NextTid{0};
  thread_local unsigned Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

Tally &prof::tally() {
  thread_local Tally T;
  return T;
}

Tally prof::since(const Tally &At0) {
  const Tally &T = tally();
  Tally D;
  D.Conflicts = T.Conflicts - At0.Conflicts;
  D.Decisions = T.Decisions - At0.Decisions;
  D.Propagations = T.Propagations - At0.Propagations;
  D.Restarts = T.Restarts - At0.Restarts;
  D.Rewrites = T.Rewrites - At0.Rewrites;
  D.SatChecks = T.SatChecks - At0.SatChecks;
  D.SolveSeconds = T.SolveSeconds - At0.SolveSeconds;
  return D;
}

Effort::Effort() : At0(tally()) { tally().ClausesPeak = 0; }

Effort::~Effort() {
  Tally &T = tally();
  T.ClausesPeak = std::max(T.ClausesPeak, At0.ClausesPeak);
}

Tally Effort::delta() const {
  Tally D = since(At0);
  D.ClausesPeak = tally().ClausesPeak; // the peak since this scope zeroed it
  return D;
}

void Span::open(unsigned M, std::string_view Detail) {
  Collect = M & Collecting;
  On = M & detail::Tracing;
  this->Detail = Detail;
  ThreadState &TS = threadState();
  SpanId = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  ParentId = TS.Stack.empty() ? TS.InheritedParent : TS.Stack.back().Id;
  TS.Stack.push_back({SpanId, Name});
  At0 = tally();
  Start = Clock.seconds();
}

void Span::close() {
  SpanRecord R;
  R.Id = SpanId;
  R.Parent = ParentId;
  R.Name = Name;
  R.Tid = threadId();
  R.StartSec = Start - EpochSec.load(std::memory_order_relaxed);
  R.DurSec = Clock.seconds() - Start;
  R.Delta = since(At0);

  // RAII spans unwind strictly nested, so this span is the innermost open
  // one; pop before the slow log so the path ends at this span's parent.
  ThreadState &TS = threadState();
  if (!TS.Stack.empty() && TS.Stack.back().Id == SpanId)
    TS.Stack.pop_back();

  if (On) {
    const Tally &D = R.Delta;
    char Nums[320];
    std::snprintf(Nums, sizeof Nums,
                  ",\"seconds\":%.9g,\"sat_checks\":%" PRIu64
                  ",\"solve_seconds\":%.9g,\"conflicts\":%" PRIu64
                  ",\"decisions\":%" PRIu64 ",\"propagations\":%" PRIu64
                  ",\"restarts\":%" PRIu64 ",\"rewrites\":%" PRIu64,
                  R.DurSec, D.SatChecks, D.SolveSeconds, D.Conflicts,
                  D.Decisions, D.Propagations, D.Restarts, D.Rewrites);
    std::string Lead = ",\"parent\":" + std::to_string(ParentId) +
                       ",\"detail\":\"" + trace::jsonEscape(Detail) + "\"" +
                       Nums;
    write(Name, SpanId, Lead);
  }
  if (!Collect)
    return;
  R.Detail = std::move(Detail);

  double Slow = SlowQueryMs.load(std::memory_order_relaxed);
  if (Slow >= 0 && R.DurSec * 1000.0 >= Slow &&
      std::string_view(Name) == "staged_query")
    logSlowQuery(R);

  std::lock_guard<std::mutex> Lock(Mu);
  Records.push_back(std::move(R));
}

uint64_t prof::currentSpanId() {
  ThreadState &TS = threadState();
  return TS.Stack.empty() ? TS.InheritedParent : TS.Stack.back().Id;
}

Context prof::capture() {
  Context C;
  C.SpanId = currentSpanId();
  C.Path = currentPath();
  return C;
}

Adopt::Adopt(const Context &Ctx) {
  ThreadState &TS = threadState();
  PrevSpan = TS.InheritedParent;
  PrevPath = std::move(TS.InheritedPath);
  TS.InheritedParent = Ctx.SpanId;
  TS.InheritedPath = Ctx.Path;
}

Adopt::~Adopt() {
  ThreadState &TS = threadState();
  TS.InheritedParent = PrevSpan;
  TS.InheritedPath = std::move(PrevPath);
}

void prof::setSlowQueryMs(double Ms) {
  SlowQueryMs.store(Ms, std::memory_order_relaxed);
}

void prof::setSlowQueryStream(std::ostream *OS) {
  std::lock_guard<std::mutex> Lock(SlowMu);
  SlowSink = OS;
}

std::vector<SpanRecord> prof::snapshot() {
  std::lock_guard<std::mutex> Lock(Mu);
  return Records;
}

std::vector<PhaseAgg> prof::aggregate() {
  std::vector<SpanRecord> Snap = snapshot();
  // Children time per parent id, for self-time attribution.
  std::map<uint64_t, double> ChildSec;
  for (const SpanRecord &R : Snap)
    if (R.Parent)
      ChildSec[R.Parent] += R.DurSec;

  std::map<std::string, PhaseAgg> ByName;
  for (const SpanRecord &R : Snap) {
    PhaseAgg &A = ByName[R.Name];
    A.Name = R.Name;
    ++A.Count;
    A.TotalSec += R.DurSec;
    A.MaxSec = std::max(A.MaxSec, R.DurSec);
    double Self = R.DurSec;
    if (auto It = ChildSec.find(R.Id); It != ChildSec.end())
      Self -= It->second;
    A.SelfSec += std::max(Self, 0.0);
    const Tally &D = R.Delta;
    A.Delta.Conflicts += D.Conflicts;
    A.Delta.Decisions += D.Decisions;
    A.Delta.Propagations += D.Propagations;
    A.Delta.Restarts += D.Restarts;
    A.Delta.Rewrites += D.Rewrites;
    A.Delta.SatChecks += D.SatChecks;
    A.Delta.SolveSeconds += D.SolveSeconds;
  }

  std::vector<PhaseAgg> Out;
  for (auto &[Name, A] : ByName) {
    A.MeanSec = A.Count ? A.TotalSec / (double)A.Count : 0;
    Out.push_back(std::move(A));
  }
  std::sort(Out.begin(), Out.end(), [](const PhaseAgg &A, const PhaseAgg &B) {
    return A.TotalSec > B.TotalSec;
  });
  return Out;
}

std::string prof::table() {
  std::vector<PhaseAgg> Aggs = aggregate();
  if (Aggs.empty())
    return "(no profile spans recorded)\n";
  std::string Out =
      "phase                 count     total s      mean s       max s"
      "      self s  sat_checks     solve s    conflicts    decisions"
      " propagations  restarts  rewrites\n";
  char Line[320];
  for (const PhaseAgg &A : Aggs) {
    const Tally &D = A.Delta;
    std::snprintf(Line, sizeof Line,
                  "%-20s %6" PRIu64 " %11.6f %11.6f %11.6f %11.6f %11" PRIu64
                  " %11.6f %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                  " %9" PRIu64 " %9" PRIu64 "\n",
                  A.Name.c_str(), A.Count, A.TotalSec, A.MeanSec, A.MaxSec,
                  A.SelfSec, D.SatChecks, D.SolveSeconds, D.Conflicts,
                  D.Decisions, D.Propagations, D.Restarts, D.Rewrites);
    Out += Line;
  }
  return Out;
}

bool prof::writeChromeTrace(const std::string &Path) {
  std::ofstream OS(Path, std::ios::out | std::ios::trunc);
  if (!OS)
    return false;
  std::vector<SpanRecord> Snap = snapshot();
  // Sorting globally by start time keeps "ts" monotone within every
  // (pid, tid) track, which chrome://tracing expects and
  // tools/check_trace.py enforces.
  std::stable_sort(Snap.begin(), Snap.end(),
                   [](const SpanRecord &A, const SpanRecord &B) {
                     return A.StartSec < B.StartSec;
                   });

  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  // One named track per thread seen in the records.
  std::map<unsigned, bool> Tids;
  for (const SpanRecord &R : Snap)
    Tids[R.Tid] = true;
  char Buf[512];
  for (const auto &[Tid, Unused] : Tids) {
    (void)Unused;
    std::snprintf(Buf, sizeof Buf,
                  "%s\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"worker %u\"}}",
                  First ? "" : ",", Tid, Tid);
    OS << Buf;
    First = false;
  }
  for (const SpanRecord &R : Snap) {
    // Fixed-size fields via snprintf; the free-form detail is appended as a
    // separately escaped string so long check names cannot truncate the
    // record mid-JSON.
    std::snprintf(Buf, sizeof Buf,
                  "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"alive\","
                  "\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"conflicts\":%" PRIu64 ",\"decisions\":%" PRIu64
                  ",\"propagations\":%" PRIu64 ",\"rewrites\":%" PRIu64
                  ",\"sat_checks\":%" PRIu64 ",\"detail\":\"",
                  First ? "" : ",", R.Tid, R.StartSec * 1e6, R.DurSec * 1e6,
                  R.Name, R.Id, R.Parent, R.Delta.Conflicts,
                  R.Delta.Decisions, R.Delta.Propagations, R.Delta.Rewrites,
                  R.Delta.SatChecks);
    OS << Buf << trace::jsonEscape(R.Detail) << "\"}}";
    First = false;
  }
  OS << "\n]}\n";
  OS.flush();
  return (bool)OS;
}
