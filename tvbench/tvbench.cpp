//===- tvbench/tvbench.cpp - The validator benchmark, one workload -------===//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the validator benchmark in this process (so the
/// process's peak RSS belongs to that workload alone):
///
///   tvbench --workload W --seed N --seconds S --trace 0|1
///
/// The inputs are fixed: --seed is recorded but changes nothing, because
/// every variation tried made runs disagree far more than fixed inputs do
/// (see tvbench/README.md).
///
/// Set-up builds the workload's inputs and is repeated (setup_s is the
/// median). The timed window then runs complete passes over the inputs
/// until S seconds have elapsed, timing every call into the alive2re
/// modules from outside. Each pair's latency is the median over the passes,
/// so a burst of load on the machine that slows one pass does not move it. Every verdict is checked against the pair's known
/// answer; a wrong verdict is named on stderr and makes the result
/// incorrect.
///
/// --trace 0 reports the end-to-end metrics. --trace 1 times half the
/// window untraced and half with the profiler on, and reports the per-layer
/// metrics of the traced half, the tracing overhead (traced over untraced
/// wall per pass), the share of the traced wall that the layers account
/// for, and a drill-down of the slowest pairs. The library carries no
/// instrumentation for this: the benchmark wraps its own calls in prof::Span
/// records (name, start, end, parent; the pair index as request id) and
/// reads what the calls already return — Verdict::Queries and the
/// profiler's own spans.
///
/// The last stdout line is one JSON object: correct, attempted, failed and
/// metrics. tvbench/README.md describes the workloads and the metrics.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "refine/Validator.h"
#include "smt/Expr.h"
#include "support/Profile.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <sched.h>
#include <vector>

using namespace alive;
using refine::Verdict;
using refine::VerdictKind;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Continued fraction of the incomplete beta function (Numerical Recipes'
/// betacf).
double betaFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  double C = 1, D = 1 - (A + B) * X / (A + 1);
  D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
  double H = D;
  for (int M = 1; M <= 100000; ++M) {
    for (int Step = 0; Step < 2; ++Step) {
      double Num = Step == 0
                       ? M * (B - M) * X / ((A - 1 + 2 * M) * (A + 2 * M))
                       : -(A + M) * (A + B + M) * X /
                             ((A + 2 * M) * (A + 1 + 2 * M));
      D = 1 + Num * D;
      D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
      C = 1 + Num / C;
      C = std::fabs(C) < Tiny ? Tiny : C;
      H *= D * C;
      if (Step == 1 && std::fabs(D * C - 1) < 1e-13)
        return H;
    }
  }
  return H;
}

/// The regularized incomplete beta function I_X(A, B).
double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double Front = std::exp(std::lgamma(A + B) - std::lgamma(A) -
                          std::lgamma(B) + A * std::log(X) +
                          B * std::log1p(-X));
  if (X < (A + 1) / (A + B + 2))
    return Front * betaFraction(A, B, X) / A;
  return 1 - Front * betaFraction(B, A, 1 - X) / B;
}

/// Harrell-Davis weights for quantile \p Q of \p N order statistics,
/// computed once per (N, Q).
const std::vector<double> &hdWeights(size_t N, double Q) {
  static std::map<std::pair<size_t, double>, std::vector<double>> Cache;
  auto [It, New] = Cache.try_emplace({N, Q});
  if (New) {
    double A = Q * double(N + 1), B = (1 - Q) * double(N + 1), Prev = 0;
    for (size_t I = 1; I <= N; ++I) {
      double Cdf = incompleteBeta(A, B, double(I) / double(N));
      It->second.push_back(Cdf - Prev);
      Prev = Cdf;
    }
  }
  return It->second;
}

/// The Harrell-Davis estimate of quantile \p Q (0 for no values): a
/// Beta-weighted mean of all order statistics. Unlike a rank-based estimate
/// it does not jump when the quantile falls in a gap between clusters of
/// values; the corpus has such gaps at both its median and its 90th
/// percentile.
double percentile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  const std::vector<double> &W = hdWeights(V.size(), Q);
  double Sum = 0;
  for (size_t I = 0; I < V.size(); ++I)
    Sum += W[I] * V[I];
  return Sum;
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

bool isInconclusive(VerdictKind K) {
  switch (K) {
  case VerdictKind::Timeout:
  case VerdictKind::OutOfMemory:
  case VerdictKind::Unsupported:
  case VerdictKind::Failed:
  case VerdictKind::DeadlineSkipped:
    return true;
  default:
    return false;
  }
}

const char *kindName(VerdictKind K) {
  Verdict V;
  V.Kind = K;
  return V.kindName();
}

/// The pipeline every app goes through: the in-the-wild select->and/or
/// miscompilation first (before instcombine canonicalizes its trigger away),
/// then the honest -O2 pipeline. Same as bench_fig7_apps.
const char *const BugPass = "bug-select-arith";
std::vector<std::string> appPipeline() {
  std::vector<std::string> P = opt::defaultPipeline();
  P.insert(P.begin(), BugPass);
  return P;
}

/// One hand-written pair with its known answer.
struct CorpusPair {
  corpus::TestPair P;
  bool KnownBug = false;      ///< from the Section 8.5 suite
  bool ExpectDetected = true; ///< known bugs only
};

/// The curated unit suite plus the known-bugs suite, in suite order.
std::vector<CorpusPair> corpusPairs() {
  std::vector<CorpusPair> Out;
  for (const corpus::TestPair &P : corpus::unitTestSuite())
    Out.push_back({P, false, true});
  for (const corpus::KnownBug &B : corpus::knownBugSuite())
    Out.push_back({B.Pair, true, B.ExpectDetected});
  return Out;
}

/// alive-corpus's rule for the unit suite (pairs beyond the unroll bound
/// included) and ExpectDetected for known bugs. \returns false when the
/// verdict contradicts the known answer or is inconclusive: as in the CI
/// gate, no hand-written pair may time out.
bool corpusVerdictOk(const CorpusPair &C, const Verdict &V, unsigned Unroll) {
  if (isInconclusive(V.Kind))
    return false;
  if (C.KnownBug)
    return V.isIncorrect() == C.ExpectDetected;
  bool Beyond = C.P.NeedsUnroll > Unroll;
  if (V.Kind == VerdictKind::PreconditionFalse)
    return Beyond;
  if (!C.P.ExpectBug)
    return V.isCorrect();
  return Beyond ? V.isCorrect() : V.isIncorrect();
}

const char *corpusExpectation(const CorpusPair &C, unsigned Unroll) {
  if (C.KnownBug)
    return C.ExpectDetected ? "incorrect" : "not incorrect";
  if (C.P.NeedsUnroll > Unroll)
    return "correct or precondition-false (beyond the unroll bound)";
  return C.P.ExpectBug ? "incorrect" : "correct";
}

/// Names a pair whose verdict contradicts its known answer.
void reportWrong(const char *Workload, const std::string &Name,
                 const Verdict &V, const char *Expected) {
  std::fprintf(stderr, "WRONG VERDICT [%s] %s: got %s (%s), expected %s\n",
               Workload, Name.c_str(), V.kindName(), V.FailedCheck.c_str(),
               Expected);
}

/// What the benchmark keeps of one verdict.
struct Sample {
  unsigned Rid = 0; ///< pair index within its pass
  std::string Name;
  VerdictKind Kind = VerdictKind::Failed;
  bool Wrong = false;
  double LatencySec = 0; ///< submission to verdict
  double PairSec = 0;    ///< Verdict::Seconds
  unsigned Queries = 0, QueryHits = 0, Unknown = 0;
  uint64_t Rounds = 0, MaxRounds = 0, SatChecks = 0;
  uint64_t Conflicts = 0, Propagations = 0;
  double SolverSec = 0;
  size_t ClausesPeak = 0;
  std::string Check; ///< the failed check, else the slowest staged query
};

Sample makeSample(unsigned Rid, std::string Name, const Verdict &V,
                  double Latency, bool Wrong) {
  Sample S;
  S.Rid = Rid;
  S.Name = std::move(Name);
  S.Kind = V.Kind;
  S.Wrong = Wrong;
  S.LatencySec = Latency;
  S.PairSec = V.Seconds;
  S.Check = V.FailedCheck;
  double Slowest = -1;
  for (const refine::QueryStats &Q : V.Queries) {
    ++S.Queries;
    S.QueryHits += Q.CacheHit;
    S.Unknown += Q.Result == refine::QueryResult::Unknown;
    S.Rounds += Q.EFIterations;
    S.MaxRounds = std::max<uint64_t>(S.MaxRounds, Q.EFIterations);
    S.SatChecks += Q.SatChecks;
    S.Conflicts += Q.Conflicts;
    S.Propagations += Q.Propagations;
    S.SolverSec += Q.SolverSeconds;
    S.ClausesPeak = std::max(S.ClausesPeak, Q.Clauses);
    if (V.FailedCheck.empty() && Q.Seconds > Slowest) {
      Slowest = Q.Seconds;
      S.Check = Q.Check;
    }
  }
  return S;
}

/// Tallies over the timed passes of one window.
struct Window {
  Window(double Budget, bool Serial) : Budget(Budget), Serial(Serial) {}

  double Budget; ///< per-pair solver budget, seconds
  /// Whether the pairs run one after another, so that a pass's wall time is
  /// its pairs' latencies plus what the pass does around them.
  bool Serial;
  unsigned Passes = 0;
  double Wall = 0;
  unsigned Pairs = 0, Inconclusive = 0, Wrong = 0;
  /// Failed operations: pairs with a wrong verdict or a Failed one (the
  /// validator could not process the input).
  unsigned FailedOps = 0;
  /// Conclusive pairs that took more than half the budget.
  unsigned NearBudget = 0;
  /// Pairs per VerdictKind.
  std::array<unsigned, 8> Kinds{};
  double VerifySec = 0, SolverSec = 0;
  uint64_t Queries = 0, QueryHits = 0, Unknown = 0, Rounds = 0,
           MaxRounds = 0, SatChecks = 0, Conflicts = 0, Props = 0;
  size_t ClausesPeak = 0;
  /// The samples of the current (at the end: the last) pass.
  std::vector<Sample> LastPass;
  /// Every pass holds the same pairs in the same order. Per pair (by Rid):
  /// its latency in each pass.
  std::vector<std::vector<double>> PairLatSec;
  /// Per pass: its wall time, and that wall time minus its pairs' latencies
  /// (on a serial workload: parsing apps, the opt passes, Validator set-up).
  std::vector<double> PassSec, PassRestSec;
  // Batch only: wall x workers, summed pair seconds, and per pair the time
  // from the batch call to its verdict that it did not spend verifying.
  double WorkerSeconds = 0, BusySeconds = 0;
  std::vector<double> PoolWaitMs;

  void add(Sample S) {
    ++Pairs;
    bool Inc = isInconclusive(S.Kind);
    Inconclusive += Inc;
    Wrong += S.Wrong;
    FailedOps += S.Wrong || S.Kind == VerdictKind::Failed;
    NearBudget += !Inc && S.PairSec > Budget / 2;
    if (size_t(S.Kind) < Kinds.size())
      ++Kinds[size_t(S.Kind)];
    VerifySec += S.PairSec;
    SolverSec += S.SolverSec;
    Queries += S.Queries;
    QueryHits += S.QueryHits;
    Unknown += S.Unknown;
    Rounds += S.Rounds;
    MaxRounds = std::max(MaxRounds, S.MaxRounds);
    SatChecks += S.SatChecks;
    Conflicts += S.Conflicts;
    Props += S.Propagations;
    ClausesPeak = std::max(ClausesPeak, S.ClausesPeak);
    LastPass.push_back(std::move(S));
  }

  void endPass(double Sec) {
    double Rest = Sec;
    for (const Sample &S : LastPass) {
      if (PairLatSec.size() <= S.Rid)
        PairLatSec.resize(S.Rid + 1);
      PairLatSec[S.Rid].push_back(S.LatencySec);
      Rest -= S.LatencySec;
    }
    PassSec.push_back(Sec);
    PassRestSec.push_back(Rest);
  }

  /// Each pair's median latency over the passes, in seconds. A burst of load
  /// on the machine slows some pairs of one pass; the per-pair median drops
  /// those samples, where a per-pass statistic would keep the whole pass.
  std::vector<double> typicalLatencies() const {
    std::vector<double> Out;
    for (const std::vector<double> &L : PairLatSec)
      Out.push_back(median(L));
    return Out;
  }

  /// Pairs per second of a typical pass. A serial pass is its pairs' typical
  /// latencies plus its typical time around them; a batch pass is one
  /// verifyBatch wall, taken as the median over the passes.
  double pairsPerSecond() const {
    double PassPairs = double(Pairs) / Passes;
    if (!Serial)
      return PassPairs / median(PassSec);
    double Sec = median(PassRestSec);
    for (double L : typicalLatencies())
      Sec += L;
    return PassPairs / Sec;
  }
};

/// Spreads the benchmark thread over every CPU it may run on: called between
/// two pairs, it moves the thread to the next CPU once a second has passed
/// since the last move. On a virtual machine whose vCPUs run at different
/// speeds (a loop replaying the corpus from a warm cache measured 30k pairs/s
/// on one vCPU of a 4-vCPU guest and 44k on another; the corpus pass took
/// 10% longer on one vCPU than on another), a thread left where the
/// scheduler first put it makes a whole run as fast as that vCPU; rotating
/// gives every run the same mix. A move costs the pair after it the wake-up
/// of an idle vCPU, which on a busy host takes up to milliseconds: moving
/// every 50 ms raised the median corpus latency by up to 60% in some passes.
class CpuRotation {
public:
  CpuRotation() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  void tick() {
    if (Cpus.size() < 2 || since(Last) < 1)
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set); // best effort
    Last = Clock::now();
  }

  /// Lets the thread run on every CPU again; threads it creates from now on
  /// (the batch workers) inherit that.
  void release() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (int C : Cpus)
      CPU_SET(C, &Set);
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Set), &Set);
  }

private:
  std::vector<int> Cpus;
  size_t Next = 0;
  Clock::time_point Last;
};
CpuRotation Rotation;

//===-- Calls into the library, each in a span ----------------------------===//

/// A parsed source/target pair of the corpus.
struct Parsed {
  std::unique_ptr<ir::Module> Src, Tgt;
  const ir::Function *SF = nullptr, *TF = nullptr;
};

Parsed parsePair(const corpus::TestPair &P) {
  Parsed Out;
  Diag Err;
  {
    prof::Span S("ir.parseModule");
    Out.Src = ir::parseModule(P.SrcIR, Err);
    if (Out.Src)
      Out.Tgt = ir::parseModule(P.TgtIR, Err);
  }
  if (!Out.Src || !Out.Tgt || Out.Src->numFunctions() == 0) {
    std::fprintf(stderr, "error: pair %s does not parse: %s\n",
                 P.Name.c_str(), Err.str().c_str());
    std::exit(1);
  }
  Out.SF = Out.Src->function(Out.Src->numFunctions() - 1);
  Out.TF = Out.Tgt->functionByName(Out.SF->name());
  if (!Out.TF) {
    std::fprintf(stderr, "error: pair %s has no target @%s\n",
                 P.Name.c_str(), Out.SF->name().c_str());
    std::exit(1);
  }
  return Out;
}

void resetContext() {
  prof::Span S("smt.resetContext");
  smt::resetContext();
}

/// Frees a verified pair: its modules and the expressions it built. One
/// top-level span per call keeps the profiler's own bookkeeping, which
/// lands in the enclosing span, inside the library's share.
void releasePair(Parsed &P) {
  prof::Span S("ir.destroyModule");
  P = Parsed();
  resetContext();
}

Verdict verifyPair(refine::Validator &V, const ir::Function &Src,
                   const ir::Function &Tgt, const ir::Module *M) {
  prof::Span S("refine.verifyPair");
  return V.verifyPair(Src, Tgt, M);
}

/// The span around one pair's calls, carrying the pair's index as request
/// id. It holds nothing but those calls, so its self time is the profiler's
/// bookkeeping for the spans inside it: support::prof work, not the
/// benchmark's.
struct PairSpan : prof::Span {
  explicit PairSpan(unsigned Rid) : prof::Span("pair", std::to_string(Rid)) {}
};

std::unique_ptr<refine::Validator> makeValidator(const refine::Options &O) {
  prof::Span S("refine.Validator");
  return std::make_unique<refine::Validator>(O);
}

void destroyValidator(std::unique_ptr<refine::Validator> &V) {
  prof::Span S("refine.destroyValidator");
  V.reset();
}

//===-- Workloads ---------------------------------------------------------===//

/// A workload: set-up (repeatable; the last one's inputs are used) and one
/// complete pass over the inputs.
class Workload {
public:
  explicit Workload(refine::Options Opts) : Opts(std::move(Opts)) {}
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  /// Whether a pass verifies its pairs one after another.
  virtual bool serial() const { return true; }
  /// Builds the inputs. \returns false on a wrong verdict during set-up.
  virtual bool setup() = 0;
  virtual void pass(Window &W) = 0;

  const refine::Options Opts;
  /// corpus::generateApp seconds of the last set-up.
  double GenSec = 0;
};

refine::Options serialOptions(double Budget) {
  refine::Options O;
  O.UnrollFactor = 8;
  O.Budget.TimeoutSec = Budget;
  O.Cache = refine::CachePolicy::disabled();
  return O;
}

/// The alive-corpus CI gate: curated and known-bug pairs verified serially
/// with the cache off.
class CorpusWorkload : public Workload {
public:
  CorpusWorkload() : Workload(serialOptions(20)) {}
  const char *name() const override { return "corpus"; }

  bool setup() override {
    Pairs = corpusPairs();
    // Every input must parse before timing starts.
    for (const CorpusPair &C : Pairs)
      parsePair(C.P);
    return true;
  }

  void pass(Window &W) override {
    auto V = makeValidator(Opts);
    resetContext();
    for (unsigned I = 0; I < Pairs.size(); ++I) {
      const CorpusPair &C = Pairs[I];
      Rotation.tick();
      Verdict R;
      double Lat;
      {
        PairSpan Span(I);
        auto T0 = Clock::now();
        Parsed P = parsePair(C.P);
        R = verifyPair(*V, *P.SF, *P.TF, P.Src.get());
        Lat = since(T0);
        releasePair(P);
      }
      bool Wrong = !corpusVerdictOk(C, R, Opts.UnrollFactor);
      if (Wrong)
        reportWrong(name(), C.P.Name, R,
                    corpusExpectation(C, Opts.UnrollFactor));
      W.add(makeSample(I, C.P.Name, R, Lat, Wrong));
    }
    destroyValidator(V);
  }

private:
  std::vector<CorpusPair> Pairs;
};

/// alive-opt --tv: each app through the pipeline, validating every pass
/// that changed a function.
class AppsWorkload : public Workload {
public:
  AppsWorkload() : Workload(serialOptions(1)) {}
  const char *name() const override { return "apps"; }

  bool setup() override {
    Texts.clear();
    GenSec = 0;
    for (const corpus::AppSpec &Spec : corpus::appSpecs()) {
      auto T0 = Clock::now();
      auto M = corpus::generateApp(Spec);
      GenSec += since(T0);
      Texts.push_back(ir::printModule(*M));
    }
    return true;
  }

  void pass(Window &W) override {
    auto V = makeValidator(Opts);
    unsigned Rid = 0;
    for (const std::string &Text : Texts) {
      std::unique_ptr<ir::Module> M;
      {
        prof::Span S("ir.parseModule");
        M = ir::parseModuleOrDie(Text);
      }
      opt::TVHook Hook = [&](const ir::Function &Before,
                             const ir::Function &After,
                             const std::string &Pass) {
        prof::Span S("bench.tvHook");
        Rotation.tick();
        Verdict R;
        double Lat;
        {
          PairSpan Span(Rid);
          resetContext();
          auto T0 = Clock::now();
          R = verifyPair(*V, Before, After, M.get());
          Lat = since(T0);
        }
        // Only the bug pass's own rewrite may be Incorrect: every later
        // pass is sound, so it must refine whatever it was given.
        bool Wrong = R.isIncorrect() && Pass != BugPass;
        std::string Pair = After.name() + "/" + Pass;
        if (Wrong)
          reportWrong(name(), Pair, R, "not incorrect (a sound pass)");
        W.add(makeSample(Rid++, std::move(Pair), R, Lat, Wrong));
      };
      prof::Span S("opt.runPipeline");
      opt::runPipeline(*M, Pipeline, Hook);
    }
    destroyValidator(V);
  }

private:
  std::vector<std::string> Pipeline = appPipeline();
  std::vector<std::string> Texts;
};

refine::Options batchOptions() {
  refine::Options O;
  O.UnrollFactor = 8;
  O.Budget.TimeoutSec = 1;
  return O;
}

/// alive-tv -j: each generated module against itself after the whole
/// pipeline, all pairs in one verifyBatch with the default in-memory cache.
class BatchWorkload : public Workload {
public:
  BatchWorkload() : Workload(batchOptions()) {}
  const char *name() const override { return "batch"; }
  bool serial() const override { return false; }
  static constexpr unsigned Jobs = 2;

  bool setup() override {
    Srcs.clear();
    Tgts.clear();
    Tasks.clear();
    BugChanged.clear();
    GenSec = 0;
    for (const corpus::AppSpec &Spec : corpus::appSpecs()) {
      auto T0 = Clock::now();
      Srcs.push_back(corpus::generateApp(Spec));
      Tgts.push_back(corpus::generateApp(Spec));
      GenSec += since(T0);
      opt::runPipeline(*Tgts.back(), appPipeline(),
                       [&](const ir::Function &, const ir::Function &After,
                           const std::string &Pass) {
                         if (Pass == BugPass)
                           BugChanged.insert(After.name());
                       });
    }
    for (size_t A = 0; A < Srcs.size(); ++A)
      for (const auto &F : *Srcs[A]) {
        if (F->isDeclaration())
          continue;
        refine::Validator::PairTask T;
        T.Src = F.get();
        T.Tgt = Tgts[A]->functionByName(F->name());
        T.M = Srcs[A].get();
        if (!T.Tgt) {
          std::fprintf(stderr, "error: @%s vanished from the target\n",
                       F->name().c_str());
          std::exit(1);
        }
        Tasks.push_back(T);
      }
    return true;
  }

  void pass(Window &W) override {
    Rotation.release();
    auto V = makeValidator(Opts);
    std::vector<double> Done(Tasks.size(), 0);
    Clock::time_point T0;
    V->onVerdict(
        [&](const refine::PairResult &R) { Done[R.Index] = since(T0); });
    std::vector<refine::PairResult> Results;
    {
      prof::Span S("refine.verifyBatch");
      T0 = Clock::now();
      Results = V->verifyBatch(Tasks, Jobs);
    }
    double Wall = since(T0);
    for (const refine::PairResult &R : Results) {
      bool Wrong =
          R.V.isIncorrect() && !BugChanged.count(Tasks[R.Index].Src->name());
      if (Wrong)
        reportWrong(name(), R.Name, R.V,
                    "not incorrect (not changed by bug-select-arith)");
      W.add(makeSample(R.Index, R.Name, R.V, Done[R.Index], Wrong));
      W.PoolWaitMs.push_back(std::max(0.0, Done[R.Index] - R.V.Seconds) *
                             1e3);
      W.BusySeconds += R.V.CumulativeSeconds;
    }
    W.WorkerSeconds += Wall * Jobs;
    destroyValidator(V);
  }

private:
  std::vector<std::unique_ptr<ir::Module>> Srcs, Tgts;
  std::vector<refine::Validator::PairTask> Tasks;
  std::set<std::string> BugChanged;
};

/// Runs complete passes until \p Seconds have elapsed, and at least one.
Window runWindow(Workload &WL, double Seconds) {
  Window W(WL.Opts.Budget.TimeoutSec, WL.serial());
  auto Start = Clock::now();
  do {
    W.LastPass.clear();
    auto T0 = Clock::now();
    {
      prof::Span S("bench.pass");
      WL.pass(W);
    }
    double PassSec = since(T0);
    W.Wall += PassSec;
    ++W.Passes;
    W.endPass(PassSec);
  } while (since(Start) < Seconds);
  return W;
}

//===-- Span analysis (traced window) -------------------------------------===//

/// The src/ module a span belongs to; "bench" for the benchmark's own spans.
std::string layerOf(const std::string &Span) {
  static const std::map<std::string, std::string> Layers = {
      {"bench.pass", "bench"},
      {"bench.tvHook", "bench"},
      {"ir.parseModule", "ir"},
      {"ir.destroyModule", "ir"},
      {"parse", "ir"},
      {"opt.runPipeline", "opt"},
      {"unroll", "transform"},
      {"encode", "sema"},
      {"memory_layout", "sema"},
      {"refine.Validator", "refine"},
      {"refine.destroyValidator", "refine"},
      {"refine.verifyPair", "refine"},
      {"pair", "support.prof"},
      {"refine.verifyBatch", "refine"},
      {"verify_pair", "refine"},
      {"staged_query", "refine"},
      {"retry_attempt", "refine"},
      {"smt.resetContext", "smt"},
      {"ef_search", "smt.ef"},
      {"ef_iteration", "smt.ef"},
      {"sat_check", "smt.solver"},
      {"bitblast", "smt.bitblast"},
      {"sat_solve", "smt.sat"},
      {"verify_batch", "support.pool"},
      {"cache_lookup", "support.cache"},
  };
  auto It = Layers.find(Span);
  return It == Layers.end() ? "other:" + Span : It->second;
}

struct SpanInfo {
  prof::SpanRecord R;
  double Self = 0; ///< duration minus the same-thread children's
  std::vector<size_t> Kids;
};

struct SpanIndex {
  std::vector<SpanInfo> Spans;
  std::map<uint64_t, size_t> ById;

  explicit SpanIndex(std::vector<prof::SpanRecord> Recs) {
    for (prof::SpanRecord &R : Recs) {
      ById[R.Id] = Spans.size();
      Spans.push_back({std::move(R), 0, {}});
    }
    for (SpanInfo &S : Spans)
      S.Self = S.R.DurSec;
    for (size_t I = 0; I < Spans.size(); ++I) {
      auto P = ById.find(Spans[I].R.Parent);
      if (P == ById.end())
        continue;
      SpanInfo &Parent = Spans[P->second];
      Parent.Kids.push_back(I);
      // A batch span's children run on workers: they do not shorten the
      // caller's wait.
      if (Parent.R.Tid == Spans[I].R.Tid)
        Parent.Self -= Spans[I].R.DurSec;
    }
    for (SpanInfo &S : Spans)
      S.Self = std::max(0.0, S.Self);
  }

  /// Adds the self seconds per span path ("a>b>c") over the subtree at
  /// \p Root.
  void selfByPath(size_t Root, const std::string &Prefix,
                  std::map<std::string, double> &Out) const {
    std::string Path = Prefix.empty() ? std::string(Spans[Root].R.Name)
                                      : Prefix + ">" + Spans[Root].R.Name;
    Out[Path] += Spans[Root].Self;
    for (size_t K : Spans[Root].Kids)
      selfByPath(K, Path, Out);
  }
};

/// The spans of each pair of the last traced pass, by request id: the
/// benchmark's pair spans carry the pair index, and a batch worker's top-level
/// spans carry the function name.
std::map<unsigned, std::vector<size_t>> lastPassRoots(const SpanIndex &Ix,
                                                      const Window &W) {
  double LastPass = 0;
  for (const SpanInfo &S : Ix.Spans)
    if (std::string(S.R.Name) == "bench.pass")
      LastPass = std::max(LastPass, S.R.StartSec);
  std::map<std::string, unsigned> ByName;
  for (const Sample &S : W.LastPass)
    ByName[S.Name] = S.Rid;
  std::map<unsigned, std::vector<size_t>> Roots;
  for (size_t I = 0; I < Ix.Spans.size(); ++I) {
    const prof::SpanRecord &R = Ix.Spans[I].R;
    if (R.StartSec < LastPass)
      continue;
    std::string Name = R.Name;
    if (Name == "pair") {
      Roots[(unsigned)std::stoul(R.Detail)].push_back(I);
      continue;
    }
    auto P = Ix.ById.find(R.Parent);
    if (P != Ix.ById.end() &&
        std::string(Ix.Spans[P->second].R.Name) == "verify_batch") {
      auto It = ByName.find(R.Detail);
      if (It != ByName.end())
        Roots[It->second].push_back(I);
    }
  }
  return Roots;
}

/// The five slowest pairs of the last traced pass, with where their time
/// went: the staged check, CEGIS rounds, SAT checks, and the span path with
/// the most self time.
void drillDown(const char *Workload, const SpanIndex &Ix, const Window &W) {
  auto Roots = lastPassRoots(Ix, W);
  std::vector<const Sample *> Order;
  for (const Sample &S : W.LastPass)
    Order.push_back(&S);
  std::sort(Order.begin(), Order.end(), [](const Sample *A, const Sample *B) {
    return A->PairSec > B->PairSec;
  });
  std::printf("slowest pairs [%s], last traced pass:\n", Workload);
  std::printf("  %-28s %-18s %10s  %-48s %7s %7s  %s\n", "pair", "verdict",
              "ms", "staged check", "rounds", "sat", "dominant phase");
  for (size_t I = 0; I < Order.size() && I < 5; ++I) {
    const Sample &S = *Order[I];
    std::map<std::string, double> Self;
    for (size_t R : Roots[S.Rid])
      Ix.selfByPath(R, "", Self);
    std::string Dom = "-";
    double Total = 0, Best = 0;
    for (const auto &[Path, Sec] : Self) {
      Total += Sec;
      if (Sec > Best) {
        Best = Sec;
        Dom = Path;
      }
    }
    std::printf("  %-28s %-18s %10.3f  %-48.48s %7llu %7llu  %s %.0f%%\n",
                S.Name.c_str(), kindName(S.Kind), S.PairSec * 1e3,
                S.Check.c_str(),
                (unsigned long long)S.Rounds,
                (unsigned long long)S.SatChecks, Dom.c_str(),
                Total > 0 ? 100 * Best / Total : 0.0);
  }
}

//===-- Metrics -----------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Starts peak-RSS tracking afresh, so peak_rss_mb covers the timed window
/// and not set-up (on batch, set-up holds every app twice and runs the
/// pipeline). Freed set-up memory is returned to the system
/// first; writing 5 to clear_refs resets the process's VmHWM to its RSS.
void resetPeakRss() {
  malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F || std::fputs("5", F) < 0 || std::fclose(F) != 0) {
    std::fprintf(stderr, "error: cannot reset the peak RSS through "
                         "/proc/self/clear_refs\n");
    std::exit(1);
  }
}

/// The process's peak RSS since resetPeakRss(), in MB (VmHWM).
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  char Line[256];
  long Kb = -1;
  while (F && std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
      break;
  if (F)
    std::fclose(F);
  if (Kb < 0) {
    std::fprintf(stderr, "error: no VmHWM in /proc/self/status\n");
    std::exit(1);
  }
  return double(Kb) / 1024.0;
}

std::vector<Metric> endToEnd(const Window &W, double SetupSec) {
  std::vector<double> Lat = W.typicalLatencies();
  return {
      {"pairs_per_s", W.pairsPerSecond(), "pairs/s"},
      {"verdict_ms_p50", percentile(Lat, 0.5) * 1e3, "ms"},
      {"verdict_ms_p90", percentile(Lat, 0.9) * 1e3, "ms"},
      {"conclusive_share", 1.0 - double(W.Inconclusive) / W.Pairs, "ratio"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"setup_s", SetupSec, "s"},
  };
}

std::vector<Metric> perLayer(const Workload &WL, const Window &Untraced,
                             const Window &W, unsigned MainTid) {
  SpanIndex Ix(prof::snapshot());
  std::map<std::string, double> SelfByName, DurByName, CountByName,
      SelfByLayer;
  double MainAttributed = 0;
  for (const SpanInfo &S : Ix.Spans) {
    std::string N = S.R.Name, L = layerOf(N);
    SelfByName[N] += S.Self;
    DurByName[N] += S.R.DurSec;
    CountByName[N] += 1;
    SelfByLayer[L] += S.Self;
    if (S.R.Tid == MainTid && L != "bench")
      MainAttributed += S.Self;
  }

  double Passes = W.Passes;
  auto PerPass = [&](double V) { return V / Passes; };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  auto Self = [&](std::initializer_list<const char *> Names) {
    double Sum = 0;
    for (const char *N : Names)
      Sum += SelfByName[N];
    return Sum / Passes;
  };
  auto Kind = [&](VerdictKind K) { return PerPass(W.Kinds[size_t(K)]); };
  double UntracedPerPass = Untraced.Wall / Untraced.Passes;
  double TracedPerPass = W.Wall / W.Passes;
  std::vector<Metric> M = {
      {"ir.parse_s", PerPass(DurByName["ir.parseModule"]), "s/pass"},
      {"corpus.gen_s", WL.GenSec, "s"},
      {"opt.pass_s",
       PerPass(DurByName["opt.runPipeline"] - DurByName["bench.tvHook"]),
       "s/pass"},
      {"opt.tv_pairs", PerPass(CountByName["bench.tvHook"]), "pairs/pass"},
      {"transform.unroll_self_s", Self({"unroll"}), "s/pass"},
      {"sema.encode_self_s", Self({"encode", "memory_layout"}), "s/pass"},
      {"refine.verify_s", PerPass(W.VerifySec), "s/pass"},
      {"refine.self_s", PerPass(SelfByLayer["refine"]), "s/pass"},
      {"refine.queries_per_pair", Ratio(W.Queries, W.Pairs), "queries/pair"},
      {"refine.verdicts.correct", Kind(VerdictKind::Correct), "pairs/pass"},
      {"refine.verdicts.incorrect", Kind(VerdictKind::Incorrect),
       "pairs/pass"},
      {"refine.verdicts.timeout", Kind(VerdictKind::Timeout), "pairs/pass"},
      {"refine.verdicts.oom", Kind(VerdictKind::OutOfMemory), "pairs/pass"},
      {"refine.verdicts.unsupported", Kind(VerdictKind::Unsupported),
       "pairs/pass"},
      {"refine.verdicts.precondition_false",
       Kind(VerdictKind::PreconditionFalse), "pairs/pass"},
      {"refine.wrong_verdicts", double(W.Wrong + Untraced.Wrong), "count"},
      {"refine.near_budget_pairs", PerPass(W.NearBudget), "pairs/pass"},
      {"smt.ef_search_self_s", Self({"ef_search", "ef_iteration"}),
       "s/pass"},
      {"smt.ef_rounds", PerPass(W.Rounds), "rounds/pass"},
      {"smt.ef_rounds_max_per_query", double(W.MaxRounds), "rounds"},
      {"smt.unknown_queries", PerPass(W.Unknown), "queries/pass"},
      {"smt.sat_checks", PerPass(W.SatChecks), "checks/pass"},
      {"smt.sat_solve_s", PerPass(W.SolverSec), "s/pass"},
      {"smt.conflicts", PerPass(W.Conflicts), "conflicts/pass"},
      {"smt.propagations", PerPass(W.Props), "props/pass"},
      {"smt.props_per_s", Ratio(W.Props, W.SolverSec), "props/s"},
      {"smt.cnf_clauses_peak", double(W.ClausesPeak), "clauses"},
      {"smt.bitblast_self_s", Self({"bitblast"}), "s/pass"},
      {"smt.bitblast_calls_per_pair", Ratio(CountByName["bitblast"], W.Pairs),
       "calls/pair"},
      {"support.pool_wait_ms_p50", median(W.PoolWaitMs), "ms"},
      {"support.pool_busy_share", Ratio(W.BusySeconds, W.WorkerSeconds),
       "ratio"},
      {"support.cache_lookup_self_s", Self({"cache_lookup"}), "s/pass"},
      {"support.cache_query_hit_rate", Ratio(W.QueryHits, W.Queries),
       "ratio"},
      {"trace.overhead_share", TracedPerPass / UntracedPerPass - 1, "ratio"},
      {"trace.attributed_share", Ratio(MainAttributed, W.Wall), "ratio"},
  };

  std::printf("layer self time, traced window [%s], s/pass:\n", WL.name());
  for (const auto &[L, Sec] : SelfByLayer)
    std::printf("  %-18s %12.6f\n", L.c_str(), Sec / Passes);
  drillDown(WL.name(), Ix, W);
  return M;
}

void printJson(bool Correct, unsigned Attempted, unsigned Failed,
               const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Ms.size(); ++I) {
    double V = std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), V, Ms[I].Unit.c_str());
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: tvbench --workload corpus|apps|batch "
               "--seed N --seconds S --trace 0|1\n",
               Msg.c_str());
  std::exit(2);
}

uint64_t parseU64(const std::string &Flag, const std::string &Val) {
  char *End = nullptr;
  uint64_t V = std::strtoull(Val.c_str(), &End, 10);
  if (Val.empty() || *End || Val[0] == '-')
    usage(Flag + " expects an unsigned integer");
  return V;
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  if (argc % 2 == 0)
    usage("flags take one value each");
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Val;
    else if (Flag == "--seed")
      Seed = parseU64(Flag, Val);
    else if (Flag == "--seconds") {
      char *End = nullptr;
      Seconds = std::strtod(Val.c_str(), &End);
      if (Val.empty() || *End || !(Seconds > 0) || !std::isfinite(Seconds))
        usage("--seconds expects a positive number");
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        usage("--trace expects 0 or 1");
      Trace = Val == "1";
    } else
      usage("unknown flag " + Flag);
  }
  if (WorkloadName.empty() || Seconds <= 0 || Trace < 0)
    usage("missing arguments");

  std::unique_ptr<Workload> WL;
  if (WorkloadName == "corpus")
    WL = std::make_unique<CorpusWorkload>();
  else if (WorkloadName == "apps")
    WL = std::make_unique<AppsWorkload>();
  else if (WorkloadName == "batch")
    WL = std::make_unique<BatchWorkload>();
  else
    usage("unknown workload " + WorkloadName);

  // Set-up is repeated so setup_s is a median: at least three times, and a
  // cheap one until the repetitions have taken two seconds (at most 5000
  // times), so that they span more than one CPU of the rotation. A
  // millisecond set-up timed only a few dozen times right after process
  // start read 60% high in some runs.
  std::vector<double> SetupSecs;
  bool Correct = true;
  for (double Total = 0;
       SetupSecs.size() < 3 || (Total < 2 && SetupSecs.size() < 5000);) {
    Rotation.tick();
    auto T0 = Clock::now();
    Correct &= WL->setup();
    SetupSecs.push_back(since(T0));
    Total += SetupSecs.back();
  }

  unsigned Attempted = 0, Failed = 0;
  std::vector<Metric> Ms;
  if (!Trace) {
    resetPeakRss();
    Window W = runWindow(*WL, Seconds);
    Ms = endToEnd(W, median(SetupSecs));
    Correct &= W.Wrong == 0;
    Attempted = W.Pairs;
    Failed = W.FailedOps;
    std::printf("workload %s (seed %llu): %u passes, %u pairs in %.3f s; "
                "inconclusive_share %.6f ratio; wrong_verdicts %u count; "
                "conclusive pairs over half the %g s budget: %u\n",
                WL->name(), (unsigned long long)Seed, W.Passes, W.Pairs,
                W.Wall, double(W.Inconclusive) / W.Pairs, W.Wrong, W.Budget,
                W.NearBudget);
  } else {
    unsigned MainTid = prof::threadId();
    Window U = runWindow(*WL, Seconds / 2);
    prof::start();
    Window W = runWindow(*WL, Seconds / 2);
    prof::stop();
    Ms = perLayer(*WL, U, W, MainTid);
    prof::clear();
    Correct &= W.Wrong == 0 && U.Wrong == 0;
    Attempted = W.Pairs + U.Pairs;
    Failed = W.FailedOps + U.FailedOps;
    for (const Metric &M : Ms)
      if (M.Name == "trace.attributed_share" && M.Value < 0.95) {
        std::fprintf(stderr,
                     "ATTRIBUTION CHECK FAILED [%s]: the layers account "
                     "for %.1f%% of the traced wall, below 95%%\n",
                     WL->name(), 100 * M.Value);
        Correct = false;
      }
  }
  for (const Metric &M : Ms)
    std::printf("%-36s %18.9g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  printJson(Correct, Attempted, Failed, Ms);
  return Correct ? 0 : 1;
}
