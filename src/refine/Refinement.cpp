//===- refine/Refinement.cpp - Translation validation core --------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "refine/Refinement.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sema/Encoder.h"
#include "smt/ExistsForall.h"
#include "smt/Fingerprint.h"
#include "support/Profile.h"
#include "support/QueryCache.h"
#include "transform/Unroll.h"

#include <cctype>
#include <cmath>
#include <functional>
#include <map>
#include <optional>

using namespace alive;
using namespace alive::refine;
using namespace alive::smt;
using namespace alive::sema;
using ir::Function;
using ir::Module;

std::string Options::validate() const {
  if (UnrollFactor == 0)
    return "unroll factor must be at least 1";
  if (!(Budget.TimeoutSec > 0) || !std::isfinite(Budget.TimeoutSec))
    return "solver timeout must be a positive, finite number of seconds";
  if (Budget.MaxLiterals == 0)
    return "solver memory budget (MaxLiterals) must be nonzero";
  if (Budget.MaxConflicts == 0)
    return "solver conflict budget (MaxConflicts) must be nonzero";
  if (Retry.MaxRungs > 8)
    return "retry ladder supports at most 8 rungs";
  if (Retry.MaxRungs > 0 &&
      (!(Retry.Multiplier > 1) || !std::isfinite(Retry.Multiplier)))
    return "retry multiplier must be a finite number greater than 1";
  if (DeadlineSec < 0 || !std::isfinite(DeadlineSec))
    return "deadline must be a non-negative, finite number of seconds";
  if (!(GovernorSampleSec > 0) || !std::isfinite(GovernorSampleSec))
    return "governor sample interval must be positive and finite";
  return "";
}

namespace {

/// Renders the shared-input part of a counterexample model, mapping the
/// encoder's "in.<arg>.<lane>" symbols back to source argument names.
std::string renderCounterexample(const Model &M, const Function &SrcF) {
  std::map<std::string, std::string> Entries;
  for (const auto &[Id, V] : M.entries()) {
    const Node &N = ExprCtx::get().node(Id);
    if (N.Name.rfind("in.", 0) != 0 && N.Name.rfind("out.", 0) != 0 &&
        N.Name.rfind("blocksize.", 0) != 0 && N.Name.rfind("tgt.", 0) != 0)
      continue;
    std::string Shown = N.Name;
    if (N.Name.rfind("in.", 0) == 0) {
      // in.<idx>.<lane>[.poison|.undef]
      unsigned ArgIdx = 0;
      size_t Pos = 3;
      while (Pos < N.Name.size() && isdigit((unsigned char)N.Name[Pos]))
        ArgIdx = ArgIdx * 10 + (N.Name[Pos++] - '0');
      if (ArgIdx < SrcF.numArgs())
        Shown = "%" + SrcF.arg(ArgIdx)->name() + N.Name.substr(Pos);
    } else if (N.Name.rfind("out.", 0) == 0) {
      std::string Suffix = N.Name.substr(4);
      Shown = Suffix == "memprobe"  ? "target memory probe"
              : Suffix == "membyte" ? "target memory byte"
                                    : "target return value (lane " + Suffix +
                                          ")";
    }
    std::string Val = N.Width == 0 ? (V.isZero() ? "false" : "true")
                                   : V.toString() + " (" + V.toHexString() +
                                         ")";
    Entries[Shown] = Val;
  }
  std::string Out;
  for (const auto &[Name, Val] : Entries)
    Out += "  " + Name + " = " + Val + "\n";
  return Out;
}

/// The instantiation seed that pairs the inner source copy \p Inner with
/// \p Other by choice origin. Only live choices count: those of \p Inner
/// that occur in the inner formula (\p InPhi) and those of \p Other that
/// occur in the outer constraints (\p InOuter); most choices are refresh
/// placeholders that no formula mentions. Within one origin the i-th live
/// inner choice maps to the i-th live choice of \p Other, clipped to the
/// last one; a choice with no partner of its width maps to zero.
EFQuery::Seed originSeed(const FunctionEncoding &Inner,
                         const std::unordered_set<ExprId> &InPhi,
                         const FunctionEncoding &Other,
                         const std::unordered_set<ExprId> &InOuter,
                         const std::string &OtherTag) {
  std::unordered_map<std::string, std::vector<Expr>> Live;
  for (const Choice &C : Other.Choices)
    if (InOuter.count(C.Var.id()))
      Live[C.Origin].push_back(C.Var);
  std::unordered_map<std::string, size_t> Rank;
  EFQuery::Seed S;
  for (const Choice &C : Inner.Choices) {
    if (!InPhi.count(C.Var.id()))
      continue;
    size_t R = Rank[C.Origin]++;
    unsigned W = C.Var.width(); // 0 for a Bool
    Expr To = W == 0 ? mkFalse() : mkBV(W, 0);
    auto It = Live.find(C.Origin);
    if (It != Live.end()) {
      Expr Cand = It->second[std::min(R, It->second.size() - 1)];
      if (Cand.width() == W)
        To = Cand;
    }
    S.VarMap[C.Var.id()] = To;
  }
  S.AppRenames = {{"localinit.srcI", "localinit." + OtherTag}};
  return S;
}

/// What one staged query found, solved or replayed from the query cache.
struct QueryAnswer {
  QueryResult Result = QueryResult::Unknown;
  /// The cacheable form of a decided answer: Unsat, or Sat / SatApprox
  /// with the rendered counterexample or diagnostic.
  support::CachedQuery Cached;
  /// Why an Unknown answer stopped.
  Reason Why = Reason::None;
  /// CEGIS rounds (0 for the plain step-1 check).
  unsigned EFIterations = 0;
};

/// One verification task: everything shared by the staged queries.
class RefinementCheck {
public:
  RefinementCheck(const Function &Src, const Function &Tgt, const Module *M,
                  const Options &Opts, support::QueryCache *QC)
      : SrcF(Src), TgtF(Tgt), M(M), Opts(Opts), QC(QC) {}

  Verdict run();

private:
  const Function &SrcF;
  const Function &TgtF;
  const Module *M;
  const Options &Opts;
  /// Staged-query result cache; null = query level disabled.
  support::QueryCache *QC;
  Stopwatch Timer;

  std::unique_ptr<Function> SrcU, TgtU;
  std::unique_ptr<MemoryLayout> Layout;
  FunctionEncoding Src, SrcI, Tgt;
  std::vector<Expr> OuterBase;
  Expr PhiBase = mkTrue();
  /// One record per query run so far; moved into the Verdict.
  std::vector<QueryStats> QStats;

  Verdict verdict(VerdictKind K, std::string Check = "",
                  std::string Detail = "", Reason Why = Reason::None) {
    Verdict V;
    V.Kind = K;
    V.FailedCheck = std::move(Check);
    V.Detail = std::move(Detail);
    V.Why = Why;
    V.Seconds = Timer.seconds();
    // A single attempt is its own cumulative cost; the Validator's retry
    // ladder overwrites this with the whole-ladder sum.
    V.CumulativeSeconds = V.Seconds;
    V.QueriesRun = (unsigned)QStats.size();
    V.Queries = std::move(QStats);
    return V;
  }

  /// The one staged-query routine: owns the staged_query span, the
  /// query-cache lookup and fill, the remaining-budget check and the
  /// QueryStats record. The query
  /// kinds differ only in \p Fingerprint (its cache key) and \p Solve.
  QueryAnswer
  stagedQuery(const std::string &Check,
              const std::function<support::Fingerprint()> &Fingerprint,
              const std::function<QueryAnswer(const SolverBudget &)> &Solve);

  /// Runs one EF query; classifies its result. \returns empty optional when
  /// refinement holds for this check.
  std::optional<Verdict> runQuery(const std::string &CheckName,
                                  std::vector<Expr> ExtraOuter, Expr ExtraPhi);
};

QueryResult toQueryResult(SatResult R) {
  return R == SatResult::Unsat ? QueryResult::Unsat
         : R == SatResult::Sat ? QueryResult::Sat
                               : QueryResult::Unknown;
}

QueryAnswer RefinementCheck::stagedQuery(
    const std::string &Check,
    const std::function<support::Fingerprint()> &Fingerprint,
    const std::function<QueryAnswer(const SolverBudget &)> &Solve) {
  prof::Span ProfSpan("staged_query", Check);
  prof::Effort Effort;
  Stopwatch QTimer;

  // Query-level cache: the query is fully assembled, so its canonical
  // fingerprint is available before any solver work. A hit skips the
  // solver entirely; sat-side hits replay the rendered counterexample
  // (plain text — models never cross the cache).
  QueryAnswer A;
  bool CacheHit = false;
  support::Fingerprint Fp;
  if (QC) {
    prof::Span FpSpan("cache_lookup", Check);
    Fp = Fingerprint();
    CacheHit = QC->findQuery(Fp, A.Cached);
    if (CacheHit)
      A.Result = A.Cached.Result == support::CachedQueryResult::Unsat
                     ? QueryResult::Unsat
                     : QueryResult::Sat;
  }
  if (!CacheHit) {
    SolverBudget B = Opts.Budget;
    B.TimeoutSec -= Timer.seconds();
    if (B.TimeoutSec <= 0) {
      A.Result = QueryResult::BudgetExhausted;
    } else {
      A = Solve(B);
      // Unknowns are budget artifacts, never cached: a rerun (or a bigger
      // budget) may decide them.
      if (QC && A.Result != QueryResult::Unknown)
        QC->putQuery(Fp, A.Cached);
    }
  }

  // One record per query, closed by one staged_query span, so QueriesRun,
  // the Queries vector and the trace stay in lockstep. A hit or a skipped
  // query ran no solver, so its effort reads zero.
  prof::Tally D = Effort.delta();
  const QueryStats &QS = QStats.emplace_back(QueryStats{
      .Check = Check,
      .Result = A.Result,
      .Seconds = QTimer.seconds(),
      .SolverSeconds = D.SolveSeconds,
      .SatChecks = (unsigned)D.SatChecks,
      .EFIterations = A.EFIterations,
      .Conflicts = D.Conflicts,
      .Decisions = D.Decisions,
      .Propagations = D.Propagations,
      .Clauses = D.ClausesPeak,
      .CacheHit = CacheHit});
  ProfSpan.str("result", toString(QS.Result))
      .num("ef_iterations", QS.EFIterations)
      .num("clauses", QS.Clauses)
      .flag("cached", QS.CacheHit);
  return A;
}

std::optional<Verdict>
RefinementCheck::runQuery(const std::string &CheckName,
                          std::vector<Expr> ExtraOuter, Expr ExtraPhi) {
  EFQuery Q;
  Q.Outer = OuterBase;
  for (Expr E : ExtraOuter)
    Q.Outer.push_back(E);
  Q.Inner = mkAnd(PhiBase, ExtraPhi);
  Q.InnerVars = SrcI.NondetVars;
  Q.InnerAppPrefixes = {"localinit.srcI"};
  if (Opts.UseInstantiationSeeds) {
    // Symbolic instantiations of the universal, one per outer copy: the
    // premise source copy and the target. They only add instances, so they
    // speed the CEGIS loop up without changing its answer.
    std::unordered_set<ExprId> InPhi, InOuter;
    collectVars(Q.Inner, InPhi);
    for (Expr E : Q.Outer)
      collectVars(E, InOuter);
    Q.Seeds = {originSeed(SrcI, InPhi, Src, InOuter, "src"),
               originSeed(SrcI, InPhi, Tgt, InOuter, "tgt")};
  }
  Q.DeriveEquationDefs = Opts.UseInstantiationSeeds;
  for (const auto &N : Src.ApproxFnNames)
    Q.AvoidAppPrefixes.push_back(N);
  for (const auto &N : SrcI.ApproxFnNames)
    Q.AvoidAppPrefixes.push_back(N);
  for (const auto &N : Tgt.ApproxFnNames)
    Q.AvoidAppPrefixes.push_back(N);

  QueryAnswer A = stagedQuery(
      CheckName, [&] { return fingerprintQuery(Q); },
      [&](const SolverBudget &B) {
        EFOutcome R = solveExistsForall(Q, B);
        QueryAnswer Out;
        Out.Result = toQueryResult(R.Res);
        Out.Why = R.UnknownReason;
        Out.EFIterations = R.Iterations;
        // A counterexample's support may include an over-approximated
        // feature (Section 3.8) even after the engine retried for a clean
        // one; then we cannot conclude a real bug.
        if (R.Res == SatResult::Sat && R.ApproxInvolved)
          Out.Cached = {support::CachedQueryResult::SatApprox,
                        "counterexample depends on over-approximated "
                        "feature: " +
                            R.ApproxApp};
        else if (R.Res == SatResult::Sat)
          Out.Cached = {support::CachedQueryResult::Sat,
                        "counterexample:\n" + renderCounterexample(R.M, SrcF)};
        return Out;
      });
  switch (A.Result) {
  case QueryResult::Unsat:
    return std::nullopt; // this check passes
  case QueryResult::BudgetExhausted:
    return verdict(VerdictKind::Timeout, CheckName, "query budget exhausted",
                   Reason::BudgetExhausted);
  case QueryResult::Unknown:
    // The detail is the reason's spelling.
    return verdict(A.Why == Reason::Memory ? VerdictKind::OutOfMemory
                                           : VerdictKind::Timeout,
                   CheckName, toString(A.Why), A.Why);
  case QueryResult::Sat:
    break;
  }
  return verdict(A.Cached.Result == support::CachedQueryResult::SatApprox
                     ? VerdictKind::Unsupported
                     : VerdictKind::Incorrect,
                 CheckName, A.Cached.Detail);
}

Verdict RefinementCheck::run() {
  // Structural sanity (we do not trust the compiler under test).
  Diag Err;
  if (!ir::verifyFunction(SrcF, Err) || !ir::verifyFunction(TgtF, Err))
    return verdict(VerdictKind::Failed, "verifier", Err.str());
  if (SrcF.returnType() != TgtF.returnType() ||
      SrcF.numArgs() != TgtF.numArgs())
    return verdict(VerdictKind::Failed, "signature",
                   "source/target signatures differ");
  for (unsigned I = 0; I < SrcF.numArgs(); ++I)
    if (SrcF.arg(I)->type() != TgtF.arg(I)->type())
      return verdict(VerdictKind::Failed, "signature",
                     "argument types differ");

  // Bounded unrolling (Section 7).
  SrcU = SrcF.clone();
  TgtU = TgtF.clone();
  auto SrcUnroll = transform::unrollLoops(*SrcU, Opts.UnrollFactor);
  auto TgtUnroll = transform::unrollLoops(*TgtU, Opts.UnrollFactor);
  if (SrcUnroll.HadIrreducible || TgtUnroll.HadIrreducible)
    return verdict(VerdictKind::Unsupported, "loops",
                   "irreducible control flow");

  Layout = std::make_unique<MemoryLayout>(
      MemoryLayout::compute(*SrcU, *TgtU, M));

  EncodeOptions SO{"src", Opts.EquivalenceMode};
  EncodeOptions SIO{"srcI", Opts.EquivalenceMode};
  EncodeOptions TO{"tgt", Opts.EquivalenceMode};
  Src = encodeFunction(*SrcU, *Layout, SrcUnroll.Sinks, SO);
  SrcI = encodeFunction(*SrcU, *Layout, SrcUnroll.Sinks, SIO);
  Tgt = encodeFunction(*TgtU, *Layout, TgtUnroll.Sinks, TO);

  // Premise (Section 5.2 final formula): the target executes within bounds
  // under both preconditions; the source-side premise uses its own
  // (outer-bound) nondeterminism copy.
  OuterBase.push_back(Tgt.Pre);
  OuterBase.push_back(Src.Pre);
  OuterBase.push_back(mkNot(Tgt.SinkDomain));
  OuterBase.push_back(mkNot(Src.SinkDomain));
  for (Expr A : Tgt.Axioms)
    OuterBase.push_back(A);
  for (Expr A : Src.Axioms)
    OuterBase.push_back(A);

  PhiBase = SrcI.Pre;
  PhiBase = mkAnd(PhiBase, mkNot(SrcI.SinkDomain));
  for (Expr A : SrcI.Axioms)
    PhiBase = mkAnd(PhiBase, A);

  // Step 1: the preconditions must not be vacuously false. The query is a
  // plain conjunction, so its cache key is the order-independent
  // conjunction fingerprint. An undecided precondition is no verdict: the
  // refinement checks below still run.
  QueryAnswer Pre = stagedQuery(
      "precondition", [&] { return fingerprintConjunction(OuterBase); },
      [&](const SolverBudget &B) {
        Solver S;
        for (Expr E : OuterBase)
          S.add(E);
        SolveOutcome R = S.check(B);
        QueryAnswer Out;
        Out.Result = toQueryResult(R.Res);
        Out.Why = R.UnknownReason;
        if (R.isSat())
          Out.Cached.Result = support::CachedQueryResult::Sat;
        return Out;
      });
  if (Pre.Result == QueryResult::Unsat)
    return verdict(VerdictKind::PreconditionFalse, "precondition",
                   "the combined preconditions are unsatisfiable");

  // Step 2: the target triggers UB only when the source does.
  if (auto V = runQuery("target is more undefined than source", {Tgt.UB},
                        SrcI.UB))
    return *V;

  // Step 3: return-domain agreement (modulo source UB).
  if (auto V = runQuery("target returns when source cannot",
                        {Tgt.RetDomain},
                        mkOr(SrcI.UB, SrcI.RetDomain)))
    return *V;

  // Steps 4-6: return value refinement, lane by lane.
  if (!SrcF.returnType()->isVoid() && !Opts.EquivalenceMode) {
    for (unsigned Lane = 0; Lane < Tgt.RetVal.Elems.size(); ++Lane) {
      const StateValue &TL = Tgt.RetVal.Elems[Lane];
      const StateValue &SL = SrcI.RetVal.Elems[Lane];
      // Step 4: target poison only where source poison (or UB).
      if (auto V = runQuery(
              "target is more poisonous than source (lane " +
                  std::to_string(Lane) + ")",
              {Tgt.RetDomain, mkNot(TL.NonPoison)},
              mkOr(SrcI.UB, mkAnd(SrcI.RetDomain, mkNot(SL.NonPoison)))))
        return *V;
    }
  }
  if (!SrcF.returnType()->isVoid()) {
    for (unsigned Lane = 0; Lane < Tgt.RetVal.Elems.size(); ++Lane) {
      const StateValue &TL = Tgt.RetVal.Elems[Lane];
      const StateValue &SL = SrcI.RetVal.Elems[Lane];
      // Steps 5/6: every defined target value must be producible by the
      // source (undef is covered by the inner existential refresh vars).
      Expr O = mkVar("out." + std::to_string(Lane), TL.Val.width());
      const ir::Type *LaneTy = laneType(SrcF.returnType(), Lane);
      Expr SrcMatches = mkEq(SL.Val, O);
      if (LaneTy->isPtr()) {
        // Local pointers are private to each function; treat a pair of
        // local blocks as mutually refining (coarse pointerRefined()).
        Expr BothLocal =
            mkAnd(Layout->isLocalBid(Layout->ptrBid(SL.Val)),
                  Layout->isLocalBid(Layout->ptrBid(O)));
        SrcMatches = mkOr(SrcMatches, BothLocal);
      }
      Expr Good =
          Opts.EquivalenceMode
              ? SrcMatches
              : mkOr(SrcI.UB, mkAnd(SrcI.RetDomain,
                                    mkOr(mkNot(SL.NonPoison), SrcMatches)));
      std::vector<Expr> Outer{Tgt.RetDomain, mkEq(O, TL.Val)};
      if (!Opts.EquivalenceMode)
        Outer.push_back(TL.NonPoison);
      if (auto V = runQuery("target's return value is more specific (lane " +
                                std::to_string(Lane) + ")",
                            Outer, Good))
        return *V;
    }
  }

  // Step 7: memory refinement via an adversarial probe address into a
  // non-local block.
  if (Opts.CheckMemory && !Opts.EquivalenceMode) {
    unsigned PB = Layout->ptrBits();
    Expr Probe = mkVar("out.memprobe", PB);
    Expr Bid = Layout->ptrBid(Probe);
    Expr InRange = mkAnd(
        mkNe(Bid, mkBV(Layout->bidBits(), 0)),
        mkAnd(Layout->isNonLocalOrNull(Bid),
              mkUlt(Layout->ptrOff(Probe),
                    Layout->blockSize(Bid, "tgt"))));
    Expr TgtByte = Tgt.Mem->loadByte(Probe);
    Expr OByte = mkVar("out.membyte", Layout->byteBits());
    Expr SrcByte = SrcI.Mem->loadByte(Probe);

    ByteOps BO(*Layout);
    Expr MaskS = BO.npMask(SrcByte), MaskT = BO.npMask(OByte);
    // Pointer bytes carry whole-byte poison: any nonzero source mask means
    // the source byte is poison and refines anything; otherwise the target
    // byte must be an identical non-poison pointer byte.
    Expr PtrRefined = mkOr(
        mkNe(MaskS, mkBV(8, 0)),
        mkAnd(BO.isPtrByte(OByte),
              mkAnd(mkEq(BO.ptrPayloadPtr(SrcByte), BO.ptrPayloadPtr(OByte)),
                    mkAnd(mkEq(BO.ptrPayloadIdx(SrcByte),
                               BO.ptrPayloadIdx(OByte)),
                          mkEq(MaskT, mkBV(8, 0))))));
    // Non-pointer bytes: the target may be poisonous only where the source
    // is, and must agree on the bits the source defines.
    Expr AllPoisonS = mkEq(MaskS, mkBV(BitVec::allOnes(8)));
    Expr NewPoison = mkNe(mkBVAnd(MaskT, mkBVNot(MaskS)), mkBV(8, 0));
    Expr Diff = mkBVAnd(mkBVXor(BO.intValue(SrcByte), BO.intValue(OByte)),
                        mkBVNot(MaskS));
    Expr IntRefined =
        mkOr(AllPoisonS,
             mkAnd(mkNot(BO.isPtrByte(OByte)),
                   mkAnd(mkNot(NewPoison), mkEq(Diff, mkBV(8, 0)))));
    Expr Refined =
        mkIte(BO.isPtrByte(SrcByte), PtrRefined, IntRefined);
    if (auto V = runQuery(
            "target's memory is more specific",
            {InRange, mkEq(OByte, TgtByte), mkNot(Tgt.UB)},
            mkOr(SrcI.UB, Refined)))
      return *V;
  }

  // Step 8 (Section 6): every target call must correspond to a source call
  // with the same callee, arguments and memory version.
  if (Opts.CheckCalls && !Opts.EquivalenceMode) {
    for (const CallRecord &TC : Tgt.Calls) {
      Expr SomeMatch = mkFalse();
      for (const CallRecord &SC : SrcI.Calls) {
        if (SC.Callee != TC.Callee || SC.Args.size() != TC.Args.size())
          continue;
        Expr Match = mkAnd(SC.Dom, mkEq(SC.Version, TC.Version));
        for (size_t I = 0; I < SC.Args.size(); ++I)
          Match = mkAnd(Match, mkEq(SC.Args[I], TC.Args[I]));
        SomeMatch = mkOr(SomeMatch, Match);
      }
      if (auto V = runQuery("target introduces a call to @" + TC.Callee,
                            {TC.Dom}, mkOr(SrcI.UB, SomeMatch)))
        return *V;
    }
  }

  return verdict(VerdictKind::Correct);
}

} // namespace

Verdict refine::detail::checkPair(const Function &Src, const Function &Tgt,
                                  const Module *M, const Options &Opts,
                                  support::QueryCache *QC) {
  prof::Span ProfSpan("verify_pair", Src.name());
  return RefinementCheck(Src, Tgt, M, Opts, QC).run();
}
