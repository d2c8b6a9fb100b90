//===- smt/Sat.h - CDCL SAT solver ------------------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch CDCL SAT solver in the MiniSat lineage: two-literal
/// watching, first-UIP conflict analysis with recursive-lite clause
/// minimization, EVSIDS branching with phase saving, Luby restarts and
/// LBD-based learned-clause reduction. It is the decision procedure behind
/// the bit-blaster and deliberately supports resource budgets (wall-clock,
/// conflicts, memory) so the translation validator can report the same
/// Timeout / OOM verdict classes as the paper's Figures 7 and 8.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SMT_SAT_H
#define ALIVE2RE_SMT_SAT_H

#include "support/Diag.h"
#include "support/Reason.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace alive::smt {

/// Typed early-stop reason shared with the upper layers (support/Reason.h).
using support::Reason;

/// Literal: variable index v with sign. Encoded as 2*v (positive) or
/// 2*v+1 (negated), the usual MiniSat encoding.
using Lit = int32_t;

inline Lit mkLit(int Var, bool Negated = false) { return 2 * Var + Negated; }
inline Lit negLit(Lit L) { return L ^ 1; }
inline int litVar(Lit L) { return L >> 1; }
inline bool litSign(Lit L) { return L & 1; }

enum class SatStatus { Sat, Unsat, Unknown };

/// Resource budget for one solve() call.
struct SatLimits {
  double TimeoutSec = 60.0;
  uint64_t MaxConflicts = ~uint64_t(0);
  /// Approximate memory cap over clause-database literals.
  size_t MaxLiterals = 1u << 27;
  /// Optional cooperative cancellation flag, polled alongside the timeout
  /// check. When it becomes true, solve() returns Unknown with
  /// Reason::Cancelled at the next poll — this is how the batch engine
  /// keeps one stuck pair from wedging a worker past its budget.
  const std::atomic<bool> *Cancel = nullptr;
};

/// CDCL solver. Usage: newVar()* -> addClause()* -> solve() -> modelValue().
/// Incremental use is supported: more clauses may be added after a solve and
/// solve() called again (used by the CEGIS refinement loop).
class SatSolver {
public:
  SatSolver();
  ~SatSolver();

  SatSolver(const SatSolver &) = delete;
  SatSolver &operator=(const SatSolver &) = delete;

  /// Creates a fresh variable and returns its index.
  int newVar();
  int numVars() const { return (int)Assign.size(); }

  /// Adds a clause (simplifying duplicates/tautologies).
  /// \returns false if the database became trivially unsatisfiable.
  bool addClause(std::vector<Lit> Lits);
  bool addClause(Lit A) { return addClause(std::vector<Lit>{A}); }
  bool addClause(Lit A, Lit B) { return addClause(std::vector<Lit>{A, B}); }
  bool addClause(Lit A, Lit B, Lit C) {
    return addClause(std::vector<Lit>{A, B, C});
  }

  SatStatus solve(const SatLimits &Limits = SatLimits());

  /// Value of a variable in the satisfying assignment (only after Sat).
  bool modelValue(int Var) const;

  /// Reason for the last Unknown result (Timeout, Memory, Cancelled or
  /// ConflictBudget).
  Reason unknownReason() const { return UnknownReason; }

  /// Live (non-deleted) clauses, learned ones included.
  size_t numClauses() const;

private:
  // Clause database. CRef indexes into Clauses; clauses are never moved,
  // only marked deleted and skipped.
  struct Clause {
    double Activity = 0;
    uint32_t Lbd = 0;
    bool Learned = false;
    bool Deleted = false;
    std::vector<Lit> Lits;
  };
  using CRef = int32_t;
  static constexpr CRef NoReason = -1;

  struct Watcher {
    CRef Ref;
    Lit Blocker;
  };

  std::vector<Clause> Clauses;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit
  std::vector<int8_t> Assign;                // per var: 0 unset, 1 true, -1 false
  std::vector<int> Level;                    // per var
  std::vector<CRef> Reasons;                 // per var
  std::vector<bool> Phase;                   // saved phases
  std::vector<double> Activity;              // VSIDS
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QHead = 0;
  double VarInc = 1.0;
  double ClaInc = 1.0;
  bool Unsat = false;
  Reason UnknownReason = Reason::None;
  size_t TotalLiterals = 0;

  // Heap-free branching: we keep a simple order heap.
  std::vector<int> Heap;    // binary max-heap of var indices by Activity
  std::vector<int> HeapPos; // var -> position in Heap or -1

  uint64_t Conflicts = 0, Decisions = 0, Propagations = 0;
  uint64_t Restarts = 0, LearnedClauses = 0, DbReductions = 0;
  std::vector<uint8_t> SeenBuf;
  std::vector<int> ToClear;

  int decisionLevel() const { return (int)TrailLim.size(); }
  int8_t value(Lit L) const {
    int8_t V = Assign[litVar(L)];
    return litSign(L) ? (int8_t)-V : V;
  }
  void enqueue(Lit L, CRef From);
  CRef propagate();
  void analyze(CRef Confl, std::vector<Lit> &OutLearnt, int &OutBtLevel,
               uint32_t &OutLbd);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  void backtrack(int ToLevel);
  void bumpVar(int Var);
  void bumpClause(Clause &C);
  void decayActivities();
  CRef attachClause(std::vector<Lit> Lits, bool Learned, uint32_t Lbd);
  void reduceDB();
  void rebuildHeap();
  void heapInsert(int Var);
  int heapPop();
  void heapUp(int Pos);
  void heapDown(int Pos);
  static uint64_t lubySequence(uint64_t I);
};

} // namespace alive::smt

#endif // ALIVE2RE_SMT_SAT_H
