//===- smt/Solver.cpp - SMT solver facade -----------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "support/Profile.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>

using namespace alive;
using namespace alive::smt;

ALIVE_STAT_COUNTER(AckAxioms, "solver.ack_axioms");
ALIVE_STAT_COUNTER(BlastClauses, "bitblast.clauses");
ALIVE_STAT_COUNTER(BlastVars, "bitblast.vars");
ALIVE_STAT_COUNTER(BlastHits, "bitblast.cache_hits");

Solver::Solver()
    : Sat(std::make_unique<SatSolver>()),
      Blaster(std::make_unique<BitBlaster>(*Sat)) {}

Solver::~Solver() = default;

Expr Solver::ackermannize(Expr E) {
  std::unordered_set<ExprId> Apps;
  collectApps(E, Apps);
  if (Apps.empty())
    return E;

  // Rewrite bottom-up: process apps in increasing id order; since operands
  // are created before their users, an app's arguments only reference
  // lower-numbered apps.
  std::vector<ExprId> Order(Apps.begin(), Apps.end());
  std::sort(Order.begin(), Order.end());

  std::unordered_map<ExprId, Expr> VarMap; // app id -> replacement var
  for (ExprId AppId : Order) {
    if (AckCache.count(AppId)) {
      VarMap[AppId] = AckCache[AppId];
      continue;
    }
    // A copy: rewriteApps, mkFreshVar and mkEq below grow the node table,
    // which would leave a reference into it dangling.
    const Node N = ExprCtx::get().node(AppId);
    // Rewrite the arguments first (they may contain earlier apps). We route
    // through substitution on a reconstructed expression of each argument.
    std::vector<Expr> Args;
    for (ExprId Op : N.Ops) {
      Expr Arg(Op);
      // Replace nested apps inside the argument.
      std::unordered_set<ExprId> Nested;
      collectApps(Arg, Nested);
      if (!Nested.empty())
        Arg = rewriteApps(Arg, VarMap);
      Args.push_back(Arg);
    }
    Expr ResVar = mkFreshVar("!ack." + N.Name, N.Width);
    AckApp Entry{AppId, ResVar, Args};
    // Congruence against previously seen apps of the same function.
    for (const AckApp &Prev : AckApps[N.Name]) {
      if (Prev.Args.size() != Args.size() ||
          Prev.ResultVar.width() != ResVar.width())
        continue;
      Expr ArgsEq = mkTrue();
      for (size_t I = 0; I < Args.size(); ++I)
        ArgsEq = mkAnd(ArgsEq, mkEq(Prev.Args[I], Args[I]));
      Expr Axiom = mkImplies(ArgsEq, mkEq(Prev.ResultVar, ResVar));
      if (!Axiom.isTrue()) {
        AckAxioms.inc();
        Blaster->assertTrue(Axiom);
      }
    }
    AckApps[N.Name].push_back(std::move(Entry));
    AckCache[AppId] = ResVar;
    VarMap[AppId] = ResVar;
  }
  return rewriteApps(E, VarMap);
}

void Solver::add(Expr E) {
  if (TriviallyUnsat)
    return;
  assert(E.isBool() && "assertions must be Bool");
  Expr Rewritten = ackermannize(E);
  if (Rewritten.isTrue())
    return;
  if (Rewritten.isFalse()) {
    TriviallyUnsat = true;
    return;
  }
  collectVars(Rewritten, SeenVars);
  Blaster->assertTrue(Rewritten);
}

/// Flushes bit-blaster telemetry accumulated since the last check into the
/// global registry (delta-based so the CNF-building hot path stays free of
/// atomics).
void Solver::flushBlastStats() {
  BlastClauses.inc(Blaster->numClausesEmitted() - SeenBlastClauses);
  BlastVars.inc(Blaster->numFreshVars() - SeenBlastVars);
  BlastHits.inc(Blaster->numCacheHits() - SeenBlastHits);
  SeenBlastClauses = Blaster->numClausesEmitted();
  SeenBlastVars = Blaster->numFreshVars();
  SeenBlastHits = Blaster->numCacheHits();
}

SolveOutcome Solver::check(const SolverBudget &Budget) {
  // Child sat_solve spans cover the CDCL core; this span's self time is
  // model extraction plus telemetry flushing.
  prof::Span ProfSpan("sat_check");
  flushBlastStats();

  SolveOutcome Out;
  bool Solved = false;
  if (TriviallyUnsat) {
    Out.Res = SatResult::Unsat;
  } else if (Blaster->overBudget()) {
    Out.Res = SatResult::Unknown;
    Out.UnknownReason = Reason::Memory;
  } else {
    SatLimits Limits;
    Limits.TimeoutSec = Budget.TimeoutSec;
    Limits.MaxLiterals = Budget.MaxLiterals;
    Limits.MaxConflicts = Budget.MaxConflicts;
    Limits.Cancel = Budget.Cancel;
    Solved = true;
    switch (Sat->solve(Limits)) {
    case SatStatus::Unsat:
      Out.Res = SatResult::Unsat;
      break;
    case SatStatus::Unknown:
      Out.Res = SatResult::Unknown;
      Out.UnknownReason = Sat->unknownReason();
      break;
    case SatStatus::Sat:
      Out.Res = SatResult::Sat;
      for (ExprId VarId : SeenVars)
        Out.M.set(VarId, Blaster->readVar(Expr(VarId)));
      break;
    }
  }
  // No SatSolver::solve ran when the check was decided up front.
  ProfSpan.str("result", toString(Out.Res))
      .num("clauses", Solved ? Sat->numClauses() : 0)
      .num("vars", Solved ? Sat->numVars() : 0);
  return Out;
}

SolveOutcome smt::checkSat(Expr E, const SolverBudget &Budget) {
  Solver S;
  S.add(E);
  return S.check(Budget);
}
