//===- smt/Sat.cpp - CDCL SAT solver ---------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Sat.h"

#include "support/Profile.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alive;
using namespace alive::smt;

ALIVE_STAT_COUNTER(SatLearned, "sat.learned_clauses");
ALIVE_STAT_COUNTER(SatReductions, "sat.db_reductions");

SatSolver::SatSolver() = default;
SatSolver::~SatSolver() = default;

int SatSolver::newVar() {
  int V = (int)Assign.size();
  Assign.push_back(0);
  Level.push_back(0);
  Reasons.push_back(NoReason);
  Phase.push_back(false);
  Activity.push_back(0.0);
  SeenBuf.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  HeapPos.push_back(-1);
  heapInsert(V);
  return V;
}

size_t SatSolver::numClauses() const {
  size_t N = 0;
  for (const Clause &C : Clauses)
    if (!C.Deleted)
      ++N;
  return N;
}

bool SatSolver::addClause(std::vector<Lit> Lits) {
  if (Unsat)
    return false;
  // Incremental use: return to the root level before touching the database.
  backtrack(0);
  // Simplify: sort, dedupe, drop false literals, detect tautology/satisfied.
  std::sort(Lits.begin(), Lits.end());
  std::vector<Lit> Out;
  Lit Prev = -1;
  for (Lit L : Lits) {
    assert(litVar(L) < numVars() && "literal references unknown variable");
    if (L == Prev)
      continue;
    if (Prev >= 0 && L == negLit(Prev) && litVar(L) == litVar(Prev))
      return true; // tautology
    if (value(L) == 1 && Level[litVar(L)] == 0)
      return true; // already satisfied
    if (value(L) == -1 && Level[litVar(L)] == 0)
      continue; // drop root-false literal
    Out.push_back(L);
    Prev = L;
  }
  if (Out.empty()) {
    Unsat = true;
    return false;
  }
  if (Out.size() == 1) {
    if (value(Out[0]) == -1) {
      Unsat = true;
      return false;
    }
    if (value(Out[0]) == 0) {
      enqueue(Out[0], NoReason);
      if (propagate() != NoReason) {
        Unsat = true;
        return false;
      }
    }
    return true;
  }
  attachClause(std::move(Out), /*Learned=*/false, /*Lbd=*/0);
  return true;
}

SatSolver::CRef SatSolver::attachClause(std::vector<Lit> Lits, bool Learned,
                                        uint32_t Lbd) {
  CRef Ref = (CRef)Clauses.size();
  TotalLiterals += Lits.size();
  Clause C;
  C.Learned = Learned;
  C.Lbd = Lbd;
  C.Activity = Learned ? ClaInc : 0.0;
  C.Lits = std::move(Lits);
  Watches[negLit(C.Lits[0])].push_back({Ref, C.Lits[1]});
  Watches[negLit(C.Lits[1])].push_back({Ref, C.Lits[0]});
  Clauses.push_back(std::move(C));
  return Ref;
}

void SatSolver::enqueue(Lit L, CRef From) {
  assert(value(L) == 0 && "enqueueing an assigned literal");
  int V = litVar(L);
  Assign[V] = litSign(L) ? -1 : 1;
  Level[V] = decisionLevel();
  Reasons[V] = From;
  Phase[V] = !litSign(L);
  Trail.push_back(L);
}

SatSolver::CRef SatSolver::propagate() {
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++];
    ++Propagations;
    std::vector<Watcher> &Ws = Watches[P];
    size_t I = 0, J = 0;
    CRef Confl = NoReason;
    while (I < Ws.size()) {
      Watcher W = Ws[I++];
      if (value(W.Blocker) == 1) {
        Ws[J++] = W;
        continue;
      }
      Clause &C = Clauses[W.Ref];
      if (C.Deleted)
        continue; // drop stale watcher
      // Ensure the false literal is at position 1.
      Lit FalseLit = negLit(P);
      if (C.Lits[0] == FalseLit)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == FalseLit && "watch invariant broken");
      Lit First = C.Lits[0];
      if (First != W.Blocker && value(First) == 1) {
        Ws[J++] = {W.Ref, First};
        continue;
      }
      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (size_t K = 2; K < C.Lits.size(); ++K) {
        if (value(C.Lits[K]) != -1) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[negLit(C.Lits[1])].push_back({W.Ref, First});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Clause is unit or conflicting.
      Ws[J++] = {W.Ref, First};
      if (value(First) == -1) {
        // Conflict: copy the rest of the watchers and bail out.
        while (I < Ws.size())
          Ws[J++] = Ws[I++];
        Confl = W.Ref;
      } else {
        enqueue(First, W.Ref);
      }
    }
    Ws.resize(J);
    if (Confl != NoReason)
      return Confl;
  }
  return NoReason;
}

void SatSolver::bumpVar(int Var) {
  Activity[Var] += VarInc;
  if (Activity[Var] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[Var] >= 0)
    heapUp(HeapPos[Var]);
}

void SatSolver::bumpClause(Clause &C) {
  C.Activity += ClaInc;
  if (C.Activity > 1e20) {
    for (Clause &Cl : Clauses)
      Cl.Activity *= 1e-20;
    ClaInc *= 1e-20;
  }
}

void SatSolver::decayActivities() {
  VarInc /= 0.95;
  ClaInc /= 0.999;
}

void SatSolver::analyze(CRef Confl, std::vector<Lit> &OutLearnt,
                        int &OutBtLevel, uint32_t &OutLbd) {
  OutLearnt.clear();
  OutLearnt.push_back(0); // placeholder for the asserting literal
  int PathCount = 0;
  Lit P = -1;
  size_t Index = Trail.size();

  do {
    assert(Confl != NoReason && "no reason for conflict-side literal");
    Clause &C = Clauses[Confl];
    if (C.Learned)
      bumpClause(C);
    for (size_t K = (P == -1 ? 0 : 1); K < C.Lits.size(); ++K) {
      Lit Q = C.Lits[K];
      int V = litVar(Q);
      if (SeenBuf[V] || Level[V] == 0)
        continue;
      SeenBuf[V] = 1;
      ToClear.push_back(V);
      bumpVar(V);
      if (Level[V] >= decisionLevel())
        ++PathCount;
      else
        OutLearnt.push_back(Q);
    }
    // Find the next literal on the trail to resolve on.
    while (!SeenBuf[litVar(Trail[Index - 1])])
      --Index;
    P = Trail[--Index];
    Confl = Reasons[litVar(P)];
    SeenBuf[litVar(P)] = 0;
    --PathCount;
  } while (PathCount > 0);
  OutLearnt[0] = negLit(P);

  // Clause minimization: drop literals implied by the rest.
  uint32_t AbstractLevels = 0;
  for (size_t K = 1; K < OutLearnt.size(); ++K)
    AbstractLevels |= 1u << (Level[litVar(OutLearnt[K])] & 31);
  size_t NewSize = 1;
  for (size_t K = 1; K < OutLearnt.size(); ++K) {
    if (Reasons[litVar(OutLearnt[K])] == NoReason ||
        !litRedundant(OutLearnt[K], AbstractLevels))
      OutLearnt[NewSize++] = OutLearnt[K];
  }
  OutLearnt.resize(NewSize);

  // Find backtrack level = max level among the non-asserting literals.
  OutBtLevel = 0;
  if (OutLearnt.size() > 1) {
    size_t MaxI = 1;
    for (size_t K = 2; K < OutLearnt.size(); ++K)
      if (Level[litVar(OutLearnt[K])] > Level[litVar(OutLearnt[MaxI])])
        MaxI = K;
    std::swap(OutLearnt[1], OutLearnt[MaxI]);
    OutBtLevel = Level[litVar(OutLearnt[1])];
  }

  // LBD = number of distinct decision levels in the learnt clause.
  std::vector<int> Levels;
  for (Lit L : OutLearnt)
    Levels.push_back(Level[litVar(L)]);
  std::sort(Levels.begin(), Levels.end());
  OutLbd = (uint32_t)(std::unique(Levels.begin(), Levels.end()) -
                      Levels.begin());

  // Clear every mark made during this analysis (including marks left by
  // successful litRedundant probes).
  for (int V : ToClear)
    SeenBuf[V] = 0;
  ToClear.clear();
}

bool SatSolver::litRedundant(Lit L, uint32_t AbstractLevels) {
  // DFS over the implication graph checking that every antecedent is either
  // seen or at level 0. Conservative: bails out on decision variables.
  std::vector<Lit> Stack{L};
  std::vector<int> Touched;
  bool Redundant = true;
  while (!Stack.empty() && Redundant) {
    Lit Cur = Stack.back();
    Stack.pop_back();
    CRef R = Reasons[litVar(Cur)];
    if (R == NoReason) {
      Redundant = false;
      break;
    }
    const Clause &C = Clauses[R];
    for (size_t K = 1; K < C.Lits.size(); ++K) {
      Lit Q = C.Lits[K];
      int V = litVar(Q);
      if (SeenBuf[V] || Level[V] == 0)
        continue;
      if (Reasons[V] == NoReason || !((1u << (Level[V] & 31)) & AbstractLevels)) {
        Redundant = false;
        break;
      }
      SeenBuf[V] = 1;
      Touched.push_back(V);
      ToClear.push_back(V);
      Stack.push_back(Q);
    }
  }
  // Roll back the marks we made if not redundant; keep them if redundant
  // (they are implied and will be cleared by the caller loop anyway).
  if (!Redundant)
    for (int V : Touched)
      SeenBuf[V] = 0;
  return Redundant;
}

void SatSolver::backtrack(int ToLevel) {
  if (decisionLevel() <= ToLevel)
    return;
  for (size_t I = Trail.size(); I > (size_t)TrailLim[ToLevel]; --I) {
    int V = litVar(Trail[I - 1]);
    Assign[V] = 0;
    Reasons[V] = NoReason;
    if (HeapPos[V] < 0)
      heapInsert(V);
  }
  Trail.resize(TrailLim[ToLevel]);
  TrailLim.resize(ToLevel);
  QHead = Trail.size();
}

void SatSolver::reduceDB() {
  // Drop the worst half of the learned clauses by (LBD, activity), keeping
  // reasons and glue (LBD <= 2) clauses.
  std::vector<CRef> Learned;
  for (CRef I = 0; I < (CRef)Clauses.size(); ++I) {
    Clause &C = Clauses[I];
    if (!C.Learned || C.Deleted || C.Lbd <= 2)
      continue;
    bool IsReason = false;
    // A clause is locked if it is the reason of its first literal.
    int V0 = litVar(C.Lits[0]);
    if (Assign[V0] != 0 && Reasons[V0] == I)
      IsReason = true;
    if (!IsReason)
      Learned.push_back(I);
  }
  std::sort(Learned.begin(), Learned.end(), [this](CRef A, CRef B) {
    const Clause &CA = Clauses[A], &CB = Clauses[B];
    if (CA.Lbd != CB.Lbd)
      return CA.Lbd > CB.Lbd;
    return CA.Activity < CB.Activity;
  });
  for (size_t I = 0; I < Learned.size() / 2; ++I) {
    Clause &C = Clauses[Learned[I]];
    TotalLiterals -= C.Lits.size();
    C.Deleted = true;
    C.Lits.clear();
    C.Lits.shrink_to_fit();
  }
  // Stale watchers are skipped lazily in propagate().
}

uint64_t SatSolver::lubySequence(uint64_t I) {
  // Knuth's formulation of the Luby sequence.
  uint64_t K = 1;
  while ((1ull << (K + 1)) <= I + 1)
    ++K;
  while ((1ull << K) - 1 != I + 1) {
    I = I - ((1ull << K) - 1) + 1 - 1;
    K = 1;
    while ((1ull << (K + 1)) <= I + 1)
      ++K;
  }
  return 1ull << (K - 1);
}

SatStatus SatSolver::solve(const SatLimits &Limits) {
  // Span first, flusher second: the flusher's destructor runs before the
  // span's, so the span observes this solve's per-thread tally deltas.
  prof::Span ProfSpan("sat_solve");
  // Adds this solve's effort deltas to the per-thread tally on every exit
  // path. This is the only place CDCL counters become effort; the search
  // loop itself only touches plain members.
  struct StatFlusher {
    SatSolver &S;
    uint64_t C0 = S.Conflicts, D0 = S.Decisions, P0 = S.Propagations;
    uint64_t R0 = S.Restarts, L0 = S.LearnedClauses, Red0 = S.DbReductions;
    Stopwatch Timer{};
    ~StatFlusher() {
      // Clause-database churn has no tally field: process totals only.
      SatLearned.inc(S.LearnedClauses - L0);
      SatReductions.inc(S.DbReductions - Red0);
      // Plain adds, so span attribution stays exact under -j N (a pair
      // never migrates between threads).
      prof::Tally &T = prof::tally();
      T.Conflicts += S.Conflicts - C0;
      T.Decisions += S.Decisions - D0;
      T.Propagations += S.Propagations - P0;
      T.Restarts += S.Restarts - R0;
      ++T.SatChecks;
      T.SolveSeconds += Timer.seconds();
      T.ClausesPeak = std::max<uint64_t>(T.ClausesPeak, S.numClauses());
    }
  } Flusher{*this};

  if (Unsat)
    return SatStatus::Unsat;
  auto cancelled = [&Limits] {
    return Limits.Cancel &&
           Limits.Cancel->load(std::memory_order_relaxed);
  };
  if (cancelled()) {
    UnknownReason = Reason::Cancelled;
    return SatStatus::Unknown;
  }
  if (TotalLiterals > Limits.MaxLiterals) {
    UnknownReason = Reason::Memory;
    return SatStatus::Unknown;
  }
  Stopwatch Timer;
  backtrack(0);
  if (propagate() != NoReason) {
    Unsat = true;
    return SatStatus::Unsat;
  }
  rebuildHeap();

  uint64_t RestartCount = 0;
  uint64_t ConflictsThisRestart = 0;
  uint64_t RestartBudget = 64 * lubySequence(RestartCount);
  uint64_t ConflictsAtStart = Conflicts;
  uint64_t NextReduce = 4000;
  std::vector<Lit> Learnt;

  while (true) {
    CRef Confl = propagate();
    if (Confl != NoReason) {
      ++Conflicts;
      ++ConflictsThisRestart;
      if (decisionLevel() == 0) {
        Unsat = true;
        return SatStatus::Unsat;
      }
      int BtLevel;
      uint32_t Lbd;
      analyze(Confl, Learnt, BtLevel, Lbd);
      backtrack(BtLevel);
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], NoReason);
      } else {
        CRef Ref = attachClause(Learnt, /*Learned=*/true, Lbd);
        enqueue(Learnt[0], Ref);
      }
      ++LearnedClauses;
      decayActivities();

      if ((Conflicts & 255) == 0) {
        if (cancelled()) {
          UnknownReason = Reason::Cancelled;
          return SatStatus::Unknown;
        }
        if (Timer.seconds() > Limits.TimeoutSec) {
          UnknownReason = Reason::Timeout;
          return SatStatus::Unknown;
        }
        if (TotalLiterals > Limits.MaxLiterals) {
          UnknownReason = Reason::Memory;
          return SatStatus::Unknown;
        }
      }
      if (Conflicts - ConflictsAtStart > Limits.MaxConflicts) {
        UnknownReason = Reason::ConflictBudget;
        return SatStatus::Unknown;
      }
      if (Conflicts > NextReduce) {
        reduceDB();
        ++DbReductions;
        NextReduce = Conflicts + 4000 + 300 * RestartCount;
      }
      continue;
    }

    if (ConflictsThisRestart >= RestartBudget) {
      ConflictsThisRestart = 0;
      RestartBudget = 64 * lubySequence(++RestartCount);
      ++Restarts;
      backtrack(0);
      continue;
    }

    // Pick a branching variable.
    int Next = -1;
    while (!Heap.empty()) {
      int V = heapPop();
      if (Assign[V] == 0) {
        Next = V;
        break;
      }
    }
    if (Next == -1) {
      // Check for any unassigned variable the heap may have missed.
      for (int V = 0; V < numVars(); ++V)
        if (Assign[V] == 0) {
          Next = V;
          break;
        }
      if (Next == -1)
        return SatStatus::Sat;
    }
    ++Decisions;
    // Conflict-gated polls can starve on propagation-heavy instances, so
    // also poll the cancel flag and timeout on the decision path.
    if ((Decisions & 4095) == 0) {
      if (cancelled()) {
        UnknownReason = Reason::Cancelled;
        return SatStatus::Unknown;
      }
      if (Timer.seconds() > Limits.TimeoutSec) {
        UnknownReason = Reason::Timeout;
        return SatStatus::Unknown;
      }
    }
    TrailLim.push_back((int)Trail.size());
    enqueue(mkLit(Next, !Phase[Next]), NoReason);
  }
}

bool SatSolver::modelValue(int Var) const {
  assert(Var < numVars() && "unknown variable");
  return Assign[Var] == 1;
}

//===----------------------------------------------------------------------===//
// Binary max-heap ordered by Activity
//===----------------------------------------------------------------------===//

void SatSolver::rebuildHeap() {
  Heap.clear();
  for (int V = 0; V < numVars(); ++V)
    HeapPos[V] = -1;
  for (int V = 0; V < numVars(); ++V)
    if (Assign[V] == 0)
      heapInsert(V);
}

void SatSolver::heapInsert(int Var) {
  if (HeapPos[Var] >= 0)
    return;
  HeapPos[Var] = (int)Heap.size();
  Heap.push_back(Var);
  heapUp(HeapPos[Var]);
}

int SatSolver::heapPop() {
  int Top = Heap[0];
  HeapPos[Top] = -1;
  if (Heap.size() > 1) {
    Heap[0] = Heap.back();
    HeapPos[Heap[0]] = 0;
    Heap.pop_back();
    heapDown(0);
  } else {
    Heap.pop_back();
  }
  return Top;
}

void SatSolver::heapUp(int Pos) {
  int Var = Heap[Pos];
  while (Pos > 0) {
    int Parent = (Pos - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[Var])
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Parent;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = Pos;
}

void SatSolver::heapDown(int Pos) {
  int Var = Heap[Pos];
  size_t N = Heap.size();
  while (true) {
    size_t L = 2 * (size_t)Pos + 1, R = L + 1;
    if (L >= N)
      break;
    size_t Best = (R < N && Activity[Heap[R]] > Activity[Heap[L]]) ? R : L;
    if (Activity[Heap[Best]] <= Activity[Var])
      break;
    Heap[Pos] = Heap[Best];
    HeapPos[Heap[Pos]] = Pos;
    Pos = (int)Best;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = Pos;
}
