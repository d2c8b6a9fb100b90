//===- fuzz/Reducer.cpp - Delta-debugging repro shrinker -------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"
#include "support/Profile.h"
#include "support/Stats.h"

#include <unordered_set>

using namespace alive;
using namespace alive::fuzz;
using namespace alive::ir;

ALIVE_STAT_COUNTER(CtrCands, "fuzz.reduce.candidates");
ALIVE_STAT_COUNTER(CtrAccepted, "fuzz.reduce.accepted");
ALIVE_STAT_COUNTER(CtrTextProbes, "fuzz.reduce.text_probes");

namespace {

Function *lastDefined(Module &M) {
  for (unsigned I = M.numFunctions(); I > 0; --I)
    if (!M.function(I - 1)->isDeclaration())
      return M.function(I - 1);
  return nullptr;
}

size_t moduleInstrs(const Module &M) {
  size_t N = 0;
  for (const auto &F : M)
    N += F->instructionCount();
  return N;
}

/// Replaces the terminator of \p BB with an unconditional branch to
/// \p Dest, then prunes every block made unreachable: phi entries from dead
/// predecessors are dropped first so the surviving blocks stay consistent.
/// \returns false when the fold is a no-op.
bool foldTerminator(Function &F, BasicBlock *BB, BasicBlock *Dest) {
  Instr *T = BB->terminator();
  if (!T)
    return false;
  BB->erase(BB->size() - 1);
  BB->append(new Br(Dest));

  // Reachability from the entry.
  std::unordered_set<BasicBlock *> Reachable;
  std::vector<BasicBlock *> Work{F.entry()};
  while (!Work.empty()) {
    BasicBlock *Cur = Work.back();
    Work.pop_back();
    if (!Reachable.insert(Cur).second)
      continue;
    for (BasicBlock *S : Cur->successors())
      Work.push_back(S);
  }
  std::vector<BasicBlock *> Dead;
  for (unsigned I = 0; I < F.numBlocks(); ++I)
    if (!Reachable.count(F.block(I)))
      Dead.push_back(F.block(I));

  for (BasicBlock *Live : Reachable)
    for (size_t I = 0; I < Live->size(); ++I) {
      auto *P = dyn_cast<Phi>(Live->instr(I));
      if (!P)
        break; // phis are first
      for (unsigned In = P->numIncoming(); In > 0; --In)
        if (!Reachable.count(P->incomingBlock(In - 1)))
          P->removeIncoming(In - 1);
    }
  for (BasicBlock *D : Dead)
    F.removeBlock(D);
  return true;
}

enum class EditStatus { Applied, Inapplicable, OutOfRange };

/// The deletion/rewiring edits applicable to \p F, applied one at a time by
/// index \p N (a stable enumeration for the current shape of \p F).
EditStatus applyEdit(Function &F, unsigned N) {
  unsigned Idx = 0;

  // Edit 0: sweep every dead instruction at once.
  if (Idx++ == N)
    return opt::removeDeadInstructions(F) > 0 ? EditStatus::Applied
                                              : EditStatus::Inapplicable;

  // Terminator folds, per block: conditional br -> either arm; switch ->
  // default destination.
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    BasicBlock *BB = F.block(B);
    Instr *T = BB->terminator();
    if (auto *Br2 = dyn_cast<Br>(T); Br2 && Br2->isConditional()) {
      if (Idx++ == N)
        return foldTerminator(F, BB, Br2->trueDest()) ? EditStatus::Applied
                                                      : EditStatus::Inapplicable;
      if (Idx++ == N)
        return foldTerminator(F, BB, Br2->falseDest())
                   ? EditStatus::Applied
                   : EditStatus::Inapplicable;
    } else if (auto *Sw = dyn_cast<Switch>(T)) {
      if (Idx++ == N)
        return foldTerminator(F, BB, Sw->defaultDest())
                   ? EditStatus::Applied
                   : EditStatus::Inapplicable;
    }
  }

  // Per-instruction deletion, last-to-first: uses are rewired to a
  // same-typed operand, else a zero-ish constant.
  for (unsigned B = F.numBlocks(); B > 0; --B) {
    BasicBlock *BB = F.block(B - 1);
    for (size_t I = BB->size(); I > 0; --I) {
      Instr *Victim = BB->instr(I - 1);
      if (Victim->isTerminator())
        continue;
      if (Idx++ != N)
        continue;
      if (!Victim->type()->isVoid() && !Victim->name().empty()) {
        Value *Repl = nullptr;
        for (Value *Op : Victim->operands())
          if (Op->type() == Victim->type() && Op != Victim) {
            Repl = Op;
            break;
          }
        if (!Repl) {
          const Type *Ty = Victim->type();
          if (Ty->isInt())
            Repl = F.getConstInt(Ty, BitVec::zero(Ty->intWidth()));
          else if (Ty->isPtr())
            Repl = F.getNull();
          else
            return EditStatus::Inapplicable; // FP/vector/aggregate
        }
        opt::replaceAllUses(F, Victim, Repl);
      }
      BB->erase(I - 1);
      return EditStatus::Applied;
    }
  }

  // Constant simplification: any integer constant operand -> 0, then -> 1.
  for (unsigned Wanted = 0; Wanted < 2; ++Wanted) {
    for (unsigned B = 0; B < F.numBlocks(); ++B) {
      BasicBlock *BB = F.block(B);
      for (size_t I = 0; I < BB->size(); ++I) {
        Instr *Ins = BB->instr(I);
        for (unsigned O = 0; O < Ins->numOps(); ++O) {
          auto *CI = dyn_cast<ConstInt>(Ins->op(O));
          if (!CI)
            continue;
          unsigned W = CI->type()->intWidth();
          BitVec Goal = Wanted == 0 ? BitVec::zero(W) : BitVec::one(W);
          if (CI->value() == Goal)
            continue;
          if (Idx++ != N)
            continue;
          Ins->setOp(O, F.getConstInt(CI->type(), Goal));
          return EditStatus::Applied;
        }
      }
    }
  }
  return EditStatus::OutOfRange;
}

/// Parses, re-verifies and counts a candidate. \returns empty on failure.
std::unique_ptr<Module> validCandidate(const std::string &Text,
                                       size_t &Instrs) {
  Diag Err;
  auto M = ir::parseModule(Text, Err);
  if (!M || !ir::verifyModule(*M, Err))
    return nullptr;
  Instrs = moduleInstrs(*M);
  return M;
}

} // namespace

ReduceResult Reducer::reduce(const std::string &OracleName,
                             const std::string &SrcIR) {
  prof::Span Sp("fuzz_reduce", OracleName);
  ReduceResult Res = shrink(OracleName, SrcIR);
  Sp.num("candidates", Res.CandidatesTried)
      .num("accepted", Res.Accepted)
      .num("initial_instrs", Res.InitialInstrs)
      .num("final_instrs", Res.FinalInstrs);
  return Res;
}

ReduceResult Reducer::shrink(const std::string &OracleName,
                             const std::string &SrcIR) {
  ReduceResult Res;
  Res.Oracle = OracleName;
  Res.SrcIR = SrcIR;

  Diag Err;
  auto M0 = ir::parseModule(SrcIR, Err);
  if (!M0 || !lastDefined(*M0)) {
    Res.TgtIR = O.deriveTarget(SrcIR);
    return Res; // text-level failures are reduced with reduceText()
  }
  std::string Cur = ir::printModule(*M0);
  Res.InitialInstrs = moduleInstrs(*M0);

  std::string Detail;
  if (!O.fails(OracleName, Cur, &Detail)) {
    // Not a failure (or not this oracle): return the input untouched.
    Res.SrcIR = Cur;
    Res.FinalInstrs = Res.InitialInstrs;
    Res.TgtIR = O.deriveTarget(Cur);
    Res.Detail = Detail;
    return Res;
  }
  Res.Detail = Detail;

  size_t CurInstrs = Res.InitialInstrs;
  std::unordered_set<std::string> Probed{Cur};
  bool Progress = true;
  while (Progress && Res.CandidatesTried < L.MaxCandidates) {
    Progress = false;
    for (unsigned EditN = 0; Res.CandidatesTried < L.MaxCandidates; ++EditN) {
      Diag D2;
      auto M = ir::parseModule(Cur, D2);
      Function *F = lastDefined(*M);
      EditStatus St = applyEdit(*F, EditN);
      if (St == EditStatus::OutOfRange)
        break;
      if (St == EditStatus::Inapplicable)
        continue;
      std::string Cand = ir::printModule(*M);
      if (!Probed.insert(Cand).second)
        continue;
      ++Res.CandidatesTried;
      CtrCands.inc();
      size_t CandInstrs = 0;
      if (!validCandidate(Cand, CandInstrs) || CandInstrs > CurInstrs)
        continue;
      std::string D;
      if (!O.fails(OracleName, Cand, &D))
        continue;
      Cur = std::move(Cand);
      CurInstrs = CandInstrs;
      Res.Detail = D;
      ++Res.Accepted;
      CtrAccepted.inc();
      Progress = true;
      break; // greedy: restart the sweep on the smaller module
    }
  }

  Res.SrcIR = Cur;
  Res.FinalInstrs = CurInstrs;
  Res.TgtIR = O.deriveTarget(Cur);
  return Res;
}

std::string Reducer::reduceText(
    const std::string &Text,
    const std::function<bool(const std::string &)> &StillFails,
    unsigned MaxProbes) {
  std::string Cur = Text;
  unsigned Probes = 0;
  size_t Chunk = Cur.size() / 2;
  while (Chunk >= 1) {
    size_t Pos = 0;
    while (Pos < Cur.size()) {
      std::string Cand = Cur;
      Cand.erase(Pos, Chunk);
      CtrTextProbes.inc();
      if (++Probes > MaxProbes)
        return Cur;
      if (Cand.size() < Cur.size() && StillFails(Cand))
        Cur = std::move(Cand); // same Pos: the next chunk slid into place
      else
        Pos += Chunk;
    }
    if (Chunk == 1)
      break;
    Chunk /= 2;
    if (Chunk > Cur.size())
      Chunk = Cur.size();
  }
  return Cur;
}
