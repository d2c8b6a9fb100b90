//===- transform/Unroll.cpp - Bounded loop unrolling -------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Unroll.h"
#include "analysis/Dominators.h"
#include "analysis/LoopForest.h"
#include "support/Profile.h"

#include <cassert>
#include <unordered_map>

using namespace alive;
using namespace alive::transform;
using namespace alive::ir;
using analysis::Cfg;
using analysis::DomTree;
using analysis::Loop;
using analysis::LoopForest;

namespace {

/// Unrolls a single innermost-at-this-point loop. Returns the sink block.
class LoopUnroller {
public:
  LoopUnroller(Function &F, Loop &L, unsigned Factor, unsigned Tag)
      : F(F), L(L), Factor(Factor), Tag(Tag) {}

  BasicBlock *run();

private:
  Function &F;
  Loop &L;
  unsigned Factor;
  unsigned Tag; // uniquifies names across unroll operations

  /// Loop blocks in function order, header first.
  std::vector<BasicBlock *> LoopBlocks;
  /// Copies[k-2][i] is iteration k's copy of LoopBlocks[i] (k from 2).
  std::vector<std::unordered_map<BasicBlock *, BasicBlock *>> BBMaps;
  std::vector<std::unordered_map<Value *, Value *>> ValMaps;
  BasicBlock *Sink = nullptr;

  BasicBlock *bbCopy(unsigned K, BasicBlock *BB) {
    return K == 1 ? BB : BBMaps[K - 2].at(BB);
  }
  Value *valCopy(unsigned K, Value *V) {
    if (K == 1)
      return V;
    auto It = ValMaps[K - 2].find(V);
    return It == ValMaps[K - 2].end() ? V : It->second;
  }
  bool inLoop(BasicBlock *BB) const { return L.contains(BB); }

  void collectBlocks();
  void makeCopies();
  void patchPhisInCopies();
  void patchTerminators();
  void repairOutsideUses();
};

void LoopUnroller::collectBlocks() {
  LoopBlocks.push_back(L.Header);
  for (unsigned I = 0; I < F.numBlocks(); ++I) {
    BasicBlock *BB = F.block(I);
    if (BB != L.Header && L.contains(BB))
      LoopBlocks.push_back(BB);
  }
}

void LoopUnroller::makeCopies() {
  BasicBlock *InsertPoint = LoopBlocks.back();
  for (unsigned K = 2; K <= Factor; ++K) {
    BBMaps.emplace_back();
    ValMaps.emplace_back();
    auto &BBMap = BBMaps.back();
    auto &ValMap = ValMaps.back();
    for (BasicBlock *BB : LoopBlocks) {
      BasicBlock *NewBB = F.insertBlockAfter(
          InsertPoint,
          BB->name() + ".l" + std::to_string(Tag) + "u" + std::to_string(K));
      InsertPoint = NewBB;
      BBMap[BB] = NewBB;
      for (const auto &I : *BB) {
        Instr *NewI = I->clone();
        if (!NewI->name().empty())
          NewI->setName(NewI->name() + ".l" + std::to_string(Tag) + "u" +
                        std::to_string(K));
        NewBB->append(NewI);
        ValMap[I.get()] = NewI;
      }
    }
    // Patch operands of the new copy to refer to this iteration's values.
    for (BasicBlock *BB : LoopBlocks) {
      BasicBlock *NewBB = BBMap[BB];
      for (const auto &I : *NewBB)
        for (unsigned OpIdx = 0; OpIdx < I->numOps(); ++OpIdx) {
          auto It = ValMap.find(I->op(OpIdx));
          if (It != ValMap.end())
            I->setOp(OpIdx, It->second);
        }
    }
  }
  Sink = F.addBlock("unroll.sink." + std::to_string(Tag));
  Sink->append(new Unreachable());
}

void LoopUnroller::patchPhisInCopies() {
  std::unordered_set<BasicBlock *> Latches(L.Latches.begin(),
                                           L.Latches.end());
  // Copied non-header blocks: remap incoming blocks/values into the copy.
  for (unsigned K = 2; K <= Factor; ++K) {
    for (BasicBlock *BB : LoopBlocks) {
      if (BB == L.Header)
        continue;
      BasicBlock *NewBB = bbCopy(K, BB);
      for (const auto &I : *NewBB) {
        auto *P = dyn_cast<Phi>(I.get());
        if (!P)
          break; // phis lead the block
        for (unsigned In = 0; In < P->numIncoming(); ++In)
          P->setIncomingBlock(In, bbCopy(K, P->incomingBlock(In)));
        // Values were already remapped by the operand pass.
      }
    }
    // Copied headers: the only predecessors are the previous iteration's
    // latches. Rewrite each latch entry and drop outside entries.
    BasicBlock *NewHeader = bbCopy(K, L.Header);
    for (const auto &I : *NewHeader) {
      auto *P = dyn_cast<Phi>(I.get());
      if (!P)
        break;
      // Collect replacement entries from the original header's phi (the
      // copy's operands were remapped to THIS copy; recompute from the
      // original phi instead).
      auto *OrigP = cast<Phi>(L.Header->instr(&I - &*NewHeader->begin()));
      std::vector<std::pair<Value *, BasicBlock *>> NewEntries;
      for (unsigned In = 0; In < OrigP->numIncoming(); ++In) {
        BasicBlock *InBB = OrigP->incomingBlock(In);
        if (!Latches.count(InBB))
          continue;
        NewEntries.push_back({valCopy(K - 1, OrigP->incomingValue(In)),
                              bbCopy(K - 1, InBB)});
      }
      while (P->numIncoming() > 0)
        P->removeIncoming(0);
      for (auto &[V, BB] : NewEntries)
        P->addIncoming(V, BB);
    }
  }
  // Original header: drop latch entries (those edges now leave iteration 1).
  for (const auto &I : *L.Header) {
    auto *P = dyn_cast<Phi>(I.get());
    if (!P)
      break;
    for (unsigned In = 0; In < P->numIncoming();) {
      if (Latches.count(P->incomingBlock(In)))
        P->removeIncoming(In);
      else
        ++In;
    }
  }
}

void LoopUnroller::patchTerminators() {
  // For every iteration copy, retarget: header -> next copy (or sink),
  // intra-loop -> same copy, exits stay put (adding phi entries for k >= 2).
  for (unsigned K = 1; K <= Factor; ++K) {
    for (BasicBlock *BB : LoopBlocks) {
      BasicBlock *CurBB = bbCopy(K, BB);
      Instr *T = CurBB->terminator();
      if (!T)
        continue;
      auto retarget = [&](BasicBlock *Dest) -> BasicBlock * {
        if (Dest == L.Header)
          return K == Factor ? Sink : bbCopy(K + 1, L.Header);
        if (inLoop(Dest))
          return bbCopy(K, Dest);
        // Exit edge: target unchanged; add phi entries for the new pred.
        if (K >= 2) {
          for (const auto &I : *Dest) {
            auto *P = dyn_cast<Phi>(I.get());
            if (!P)
              break;
            if (P->indexForBlock(CurBB))
              continue; // switch with several edges to the same target
            if (auto Idx = P->indexForBlock(BB))
              P->addIncoming(valCopy(K, P->incomingValue(*Idx)), CurBB);
          }
        }
        return Dest;
      };
      if (auto *B = dyn_cast<Br>(T)) {
        B->setTrueDest(retarget(B->trueDest()));
        if (B->isConditional())
          B->setFalseDest(retarget(B->falseDest()));
      } else if (auto *S = dyn_cast<Switch>(T)) {
        S->setDefaultDest(retarget(S->defaultDest()));
        for (unsigned C = 0; C < S->cases().size(); ++C)
          S->setCaseDest(C, retarget(S->cases()[C].second));
      }
    }
  }
}

void LoopUnroller::repairOutsideUses() {
  // Loop-defined values with users outside the loop need merged values for
  // the unrolled copies. Case (a) — phi users whose incoming edge leaves
  // the loop — was handled while retargeting. Remaining cases:
  //   (b) a single exit block that dominates the user: add a merge phi;
  //   (c) otherwise: demote the value to a stack slot.
  std::unordered_set<BasicBlock *> LoopSet(LoopBlocks.begin(),
                                           LoopBlocks.end());
  std::unordered_set<Value *> LoopDefs;
  for (BasicBlock *BB : LoopBlocks)
    for (const auto &I : *BB)
      LoopDefs.insert(I.get());

  struct OutsideUse {
    Instr *User;
    unsigned OpIdx;
    BasicBlock *Location; // block whose end must see the value
  };
  std::unordered_map<Instr *, std::vector<OutsideUse>> Uses;
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
    BasicBlock *BB = F.block(BI);
    if (LoopSet.count(BB) || BB == Sink)
      continue;
    // Skip iteration copies: they are patched already.
    bool IsCopy = false;
    for (const auto &BBMap : BBMaps)
      for (const auto &[Orig, Copy] : BBMap)
        IsCopy |= Copy == BB;
    if (IsCopy)
      continue;
    for (const auto &I : *BB) {
      auto *P = dyn_cast<Phi>(I.get());
      for (unsigned OpIdx = 0; OpIdx < I->numOps(); ++OpIdx) {
        Value *V = I->op(OpIdx);
        if (!LoopDefs.count(V))
          continue;
        BasicBlock *Loc = P ? P->incomingBlock(OpIdx) : BB;
        if (P && LoopSet.count(Loc))
          continue; // case (a): handled during retargeting
        Uses[cast<Instr>(V)].push_back({I.get(), OpIdx, Loc});
      }
    }
  }
  if (Uses.empty())
    return;

  Cfg G(F);
  DomTree DT(G);

  // Identify a unique exit block, if any: the single outside target of all
  // exiting edges of the original loop body (iteration 1).
  BasicBlock *UniqueExit = nullptr;
  bool SingleExit = true;
  for (BasicBlock *BB : LoopBlocks)
    for (BasicBlock *S : BB->successors())
      if (!LoopSet.count(S) && S != Sink) {
        if (!UniqueExit)
          UniqueExit = S;
        else if (UniqueExit != S)
          SingleExit = false;
      }

  for (auto &[Def, UseList] : Uses) {
    // Case (b): merge phi in the unique exit block.
    bool CanUsePhi = SingleExit && UniqueExit;
    if (CanUsePhi) {
      for (BasicBlock *Pred : G.preds(UniqueExit)) {
        bool Known = false;
        for (unsigned K = 1; K <= Factor && !Known; ++K)
          for (BasicBlock *BB : LoopBlocks)
            if (bbCopy(K, BB) == Pred)
              Known = true;
        CanUsePhi &= Known;
      }
      for (const OutsideUse &U : UseList)
        CanUsePhi &= DT.dominates(UniqueExit, U.Location) &&
                     U.Location != UniqueExit;
    }
    if (CanUsePhi) {
      auto *Merge = new Phi(Def->type(), Def->name() + ".merge");
      for (BasicBlock *Pred : G.preds(UniqueExit)) {
        unsigned K = 1;
        for (unsigned Kk = 1; Kk <= Factor; ++Kk)
          for (BasicBlock *BB : LoopBlocks)
            if (bbCopy(Kk, BB) == Pred)
              K = Kk;
        Merge->addIncoming(valCopy(K, Def), Pred);
      }
      UniqueExit->insert(0, Merge);
      for (const OutsideUse &U : UseList)
        U.User->setOp(U.OpIdx, Merge);
      continue;
    }
    // Case (c): demote to a stack slot.
    auto *Slot = new Alloca(Def->name() + ".slot", Def->type(), 1);
    F.entry()->insert(0, Slot);
    for (unsigned K = 1; K <= Factor; ++K) {
      Instr *DefCopy = cast<Instr>(valCopy(K, Def));
      BasicBlock *DefBB = DefCopy->parent();
      for (unsigned Idx = 0; Idx < DefBB->size(); ++Idx)
        if (DefBB->instr(Idx) == DefCopy) {
          DefBB->insert(Idx + 1, new Store(DefCopy, Slot, 1));
          break;
        }
    }
    for (const OutsideUse &U : UseList) {
      auto *Reload = new Load(Def->type(), Def->name() + ".reload", Slot, 1);
      if (isa<Phi>(U.User)) {
        // Load at the end of the incoming block, before its terminator.
        BasicBlock *InBB = U.Location;
        InBB->insert(InBB->size() - 1, Reload);
      } else {
        BasicBlock *UserBB = U.User->parent();
        for (unsigned Idx = 0; Idx < UserBB->size(); ++Idx)
          if (UserBB->instr(Idx) == U.User) {
            UserBB->insert(Idx, Reload);
            break;
          }
      }
      U.User->setOp(U.OpIdx, Reload);
    }
  }
}

BasicBlock *LoopUnroller::run() {
  collectBlocks();
  makeCopies();
  patchPhisInCopies();
  patchTerminators();
  repairOutsideUses();
  return Sink;
}

} // namespace

UnrollResult transform::unrollLoops(Function &F, unsigned Factor) {
  assert(Factor >= 1 && "unroll factor must be at least 1");
  prof::Span ProfSpan("unroll", F.name());
  UnrollResult Result;
  // Unroll one innermost loop at a time, recomputing the forest: unrolled
  // copies contain no back edges, so the loop count strictly decreases and
  // the total number of unroll operations is linear in the loop count
  // (Section 7's inside-out order).
  while (true) {
    Cfg G(F);
    LoopForest LF(G);
    if (LF.hasIrreducible()) {
      Result.HadIrreducible = true;
      break;
    }
    auto Order = LF.postOrder();
    if (Order.empty())
      break;
    Loop *L = Order.front();
    LoopUnroller U(F, *L, Factor, Result.LoopsUnrolled);
    Result.Sinks.insert(U.run());
    ++Result.LoopsUnrolled;
  }
  ProfSpan.num("factor", Factor)
      .num("sinks", Result.Sinks.size())
      .flag("irreducible", Result.HadIrreducible);
  return Result;
}
