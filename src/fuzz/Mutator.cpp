//===- fuzz/Mutator.cpp - Seeded deterministic IR mutator ------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Stats.h"

#include <cassert>
#include <optional>

using namespace alive;
using namespace alive::fuzz;
using namespace alive::ir;

ALIVE_STAT_COUNTER(CtrApplied, "fuzz.mutations.applied");
ALIVE_STAT_COUNTER(CtrRolledBack, "fuzz.mutations.rolled_back");
ALIVE_STAT_COUNTER(CtrText, "fuzz.mutations.text");

const char *fuzz::toString(MutationKind K) {
  switch (K) {
  case MutationKind::ConstantPerturb:
    return "constant-perturb";
  case MutationKind::OperandSwap:
    return "operand-swap";
  case MutationKind::FlagFlip:
    return "flag-flip";
  case MutationKind::InsertInstr:
    return "insert-instr";
  case MutationKind::DeleteInstr:
    return "delete-instr";
  case MutationKind::ReplaceOperand:
    return "replace-operand";
  case MutationKind::SelectTwist:
    return "select-twist";
  case MutationKind::BranchTwist:
    return "branch-twist";
  }
  return "?";
}

namespace {

/// The last function with a body — the one the corpus generator emits last
/// and the one the oracles verify.
Function *lastDefined(Module &M) {
  for (unsigned I = M.numFunctions(); I > 0; --I)
    if (!M.function(I - 1)->isDeclaration())
      return M.function(I - 1);
  return nullptr;
}

struct InstrRef {
  BasicBlock *BB;
  size_t Idx;
  Instr *I;
};

std::vector<InstrRef> allInstrs(Function &F) {
  std::vector<InstrRef> Out;
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    BasicBlock *BB = F.block(B);
    for (size_t I = 0; I < BB->size(); ++I)
      Out.push_back({BB, I, BB->instr(I)});
  }
  return Out;
}

bool hasUses(Function &F, const Value *V) {
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    BasicBlock *BB = F.block(B);
    for (size_t I = 0; I < BB->size(); ++I)
      for (Value *Op : BB->instr(I)->operands())
        if (Op == V)
          return true;
  }
  return false;
}

/// Values of type \p Ty usable as an operand somewhere in \p F: arguments
/// plus every instruction result (dominance violations are caught by the
/// verifier and rolled back by the caller).
std::vector<Value *> valuesOfType(Function &F, const Type *Ty,
                                  const Instr *Exclude) {
  std::vector<Value *> Out;
  for (unsigned A = 0; A < F.numArgs(); ++A)
    if (F.arg(A)->type() == Ty)
      Out.push_back(F.arg(A));
  for (const InstrRef &R : allInstrs(F))
    if (R.I != Exclude && R.I->type() == Ty && !R.I->name().empty())
      Out.push_back(R.I);
  return Out;
}

/// Values of type \p Ty defined strictly before position \p Pos of \p BB
/// (dominance-safe insertion operands): arguments and earlier same-block
/// instructions.
std::vector<Value *> valuesBefore(Function &F, BasicBlock *BB, size_t Pos,
                                  const Type *Ty) {
  std::vector<Value *> Out;
  for (unsigned A = 0; A < F.numArgs(); ++A)
    if (F.arg(A)->type() == Ty)
      Out.push_back(F.arg(A));
  for (size_t I = 0; I < Pos && I < BB->size(); ++I)
    if (BB->instr(I)->type() == Ty && !BB->instr(I)->name().empty())
      Out.push_back(BB->instr(I));
  return Out;
}

std::string valueLabel(const Value *V) {
  if (auto *CI = dyn_cast<ConstInt>(V))
    return CI->value().toString();
  return V->name().empty() ? std::string("<unnamed>") : "%" + V->name();
}

} // namespace

namespace alive::fuzz::detail {

/// One attempted typed mutation on \p F. \returns the mutation record when
/// a structural change was made (the caller re-verifies and may roll back);
/// nullopt when the drawn mutation site does not exist in \p F.
std::optional<Mutation> applyOne(Function &F, Rng &R,
                                 unsigned &FreshNameCounter) {
  auto Kind = (MutationKind)R.next(8);
  std::vector<InstrRef> Instrs = allInstrs(F);
  if (Instrs.empty())
    return std::nullopt;

  switch (Kind) {
  case MutationKind::ConstantPerturb: {
    // Collect (instr, operand) slots holding an integer constant.
    std::vector<std::pair<Instr *, unsigned>> Slots;
    for (const InstrRef &IR : Instrs)
      for (unsigned O = 0; O < IR.I->numOps(); ++O)
        if (isa<ConstInt>(IR.I->op(O)))
          Slots.push_back({IR.I, O});
    if (Slots.empty())
      return std::nullopt;
    auto [I, O] = Slots[R.next(Slots.size())];
    auto *CI = cast<ConstInt>(I->op(O));
    unsigned W = CI->type()->intWidth();
    BitVec Old = CI->value();
    BitVec New;
    switch (R.next(6)) {
    case 0:
      New = BitVec(W, Old.low64() + 1);
      break;
    case 1:
      New = BitVec(W, Old.low64() - 1);
      break;
    case 2:
      New = BitVec::zero(W);
      break;
    case 3:
      New = BitVec::one(W);
      break;
    case 4:
      New = BitVec::allOnes(W);
      break;
    default:
      New = BitVec::signedMin(W);
      break;
    }
    if (New == Old)
      return std::nullopt;
    I->setOp(O, F.getConstInt(CI->type(), New));
    return Mutation{MutationKind::ConstantPerturb,
                    "const in " + valueLabel(I) + ": " + Old.toString() +
                        " -> " + New.toString()};
  }

  case MutationKind::OperandSwap: {
    std::vector<Instr *> Cands;
    for (const InstrRef &IR : Instrs)
      if (isa<BinOp>(IR.I) || isa<FBinOp>(IR.I) || isa<ICmp>(IR.I) ||
          isa<FCmp>(IR.I))
        Cands.push_back(IR.I);
    if (Cands.empty())
      return std::nullopt;
    Instr *I = Cands[R.next(Cands.size())];
    Value *A = I->op(0);
    I->setOp(0, I->op(1));
    I->setOp(1, A);
    return Mutation{MutationKind::OperandSwap, "swapped " + valueLabel(I)};
  }

  case MutationKind::FlagFlip: {
    std::vector<Instr *> Cands;
    for (const InstrRef &IR : Instrs)
      if (isa<BinOp>(IR.I) || isa<FBinOp>(IR.I))
        Cands.push_back(IR.I);
    if (Cands.empty())
      return std::nullopt;
    Instr *I = Cands[R.next(Cands.size())];
    if (auto *B = dyn_cast<BinOp>(I)) {
      BinOp::Flags FL = B->flags();
      // nsw/nuw are meaningful on add/sub/mul/shl, exact on div/shr; keep
      // the flip printable (the printer only emits flags where the parser
      // accepts them back).
      bool ShiftOrArith =
          B->getOp() == BinOp::Op::Add || B->getOp() == BinOp::Op::Sub ||
          B->getOp() == BinOp::Op::Mul || B->getOp() == BinOp::Op::Shl;
      bool Exactable =
          B->getOp() == BinOp::Op::UDiv || B->getOp() == BinOp::Op::SDiv ||
          B->getOp() == BinOp::Op::LShr || B->getOp() == BinOp::Op::AShr;
      const char *Which;
      if (ShiftOrArith) {
        if (R.chance(1, 2)) {
          FL.NSW = !FL.NSW;
          Which = "nsw";
        } else {
          FL.NUW = !FL.NUW;
          Which = "nuw";
        }
      } else if (Exactable) {
        FL.Exact = !FL.Exact;
        Which = "exact";
      } else {
        return std::nullopt;
      }
      B->setFlags(FL);
      return Mutation{MutationKind::FlagFlip,
                      std::string(Which) + " on " + valueLabel(I)};
    }
    auto *FB = cast<FBinOp>(I);
    FastMathFlags FM = FB->fmf();
    const char *Which;
    switch (R.next(3)) {
    case 0:
      FM.NNan = !FM.NNan;
      Which = "nnan";
      break;
    case 1:
      FM.NInf = !FM.NInf;
      Which = "ninf";
      break;
    default:
      FM.NSZ = !FM.NSZ;
      Which = "nsz";
      break;
    }
    FB->setFMF(FM);
    return Mutation{MutationKind::FlagFlip,
                    std::string(Which) + " on " + valueLabel(I)};
  }

  case MutationKind::InsertInstr: {
    const InstrRef &Site = Instrs[R.next(Instrs.size())];
    // Insert before the drawn instruction, but never before a phi and
    // always inside the block (phis must stay first).
    size_t Pos = Site.Idx;
    while (Pos < Site.BB->size() && isa<Phi>(Site.BB->instr(Pos)))
      ++Pos;
    if (Pos >= Site.BB->size())
      return std::nullopt;
    // Pick an integer type that has operands available at this point.
    std::vector<Value *> Pool;
    for (unsigned A = 0; A < F.numArgs(); ++A)
      if (F.arg(A)->type()->isInt())
        Pool.push_back(F.arg(A));
    for (size_t I = 0; I < Pos; ++I)
      if (Site.BB->instr(I)->type()->isInt() &&
          !Site.BB->instr(I)->name().empty())
        Pool.push_back(Site.BB->instr(I));
    if (Pool.empty())
      return std::nullopt;
    Value *A = Pool[R.next(Pool.size())];
    const Type *Ty = A->type();
    std::vector<Value *> Bs = valuesBefore(F, Site.BB, Pos, Ty);
    Value *B = R.chance(1, 3) ? F.getConstInt(
                                    Ty, BitVec(Ty->intWidth(),
                                               (uint64_t)R.range(0, 7)))
                              : Bs[R.next(Bs.size())];
    std::string Name = "fz" + std::to_string(FreshNameCounter++);
    Instr *NewI;
    if (Ty->intWidth() > 1 && R.chance(1, 4)) {
      auto P = (ICmp::Pred)R.next(10);
      NewI = new ICmp(P, Name, A, B, Type::getBool());
    } else if (R.chance(1, 5)) {
      NewI = new Freeze(Ty, Name, A);
    } else {
      static const BinOp::Op Ops[] = {
          BinOp::Op::Add,  BinOp::Op::Sub, BinOp::Op::Mul,
          BinOp::Op::And,  BinOp::Op::Or,  BinOp::Op::Xor,
          BinOp::Op::Shl,  BinOp::Op::LShr, BinOp::Op::AShr};
      NewI = new BinOp(Ops[R.next(9)], Ty, Name, A, B);
    }
    Site.BB->insert(Pos, NewI);
    return Mutation{MutationKind::InsertInstr,
                    "%" + Name + " into " + Site.BB->name()};
  }

  case MutationKind::DeleteInstr: {
    std::vector<InstrRef> Cands;
    for (const InstrRef &IR : Instrs)
      if (!IR.I->isTerminator() && !hasUses(F, IR.I))
        Cands.push_back(IR);
    if (Cands.empty())
      return std::nullopt;
    const InstrRef &Victim = Cands[R.next(Cands.size())];
    std::string Label = valueLabel(Victim.I);
    Victim.BB->erase(Victim.Idx);
    return Mutation{MutationKind::DeleteInstr, "deleted " + Label};
  }

  case MutationKind::ReplaceOperand: {
    std::vector<std::pair<Instr *, unsigned>> Slots;
    for (const InstrRef &IR : Instrs) {
      if (isa<Phi>(IR.I))
        continue; // incoming values need per-edge dominance
      for (unsigned O = 0; O < IR.I->numOps(); ++O)
        if (IR.I->op(O)->type()->isInt())
          Slots.push_back({IR.I, O});
    }
    if (Slots.empty())
      return std::nullopt;
    auto [I, O] = Slots[R.next(Slots.size())];
    const Type *Ty = I->op(O)->type();
    std::vector<Value *> Cands = valuesOfType(F, Ty, I);
    Cands.push_back(F.getConstInt(
        Ty, BitVec(Ty->intWidth(), (uint64_t)R.range(0, 7))));
    Value *New = Cands[R.next(Cands.size())];
    if (New == I->op(O))
      return std::nullopt;
    std::string Detail = valueLabel(I) + " op" + std::to_string(O) + " -> " +
                         valueLabel(New);
    I->setOp(O, New);
    return Mutation{MutationKind::ReplaceOperand, Detail};
  }

  case MutationKind::SelectTwist: {
    std::vector<Instr *> Cands;
    for (const InstrRef &IR : Instrs)
      if (isa<Select>(IR.I))
        Cands.push_back(IR.I);
    if (Cands.empty())
      return std::nullopt;
    Instr *I = Cands[R.next(Cands.size())];
    if (R.chance(1, 2)) {
      Value *T = I->op(1);
      I->setOp(1, I->op(2));
      I->setOp(2, T);
      return Mutation{MutationKind::SelectTwist, "arms of " + valueLabel(I)};
    }
    // Invert the condition by rewiring it to another available i1 value
    // (an existing icmp result or argument) when one exists.
    std::vector<Value *> Bools = valuesOfType(F, Type::getBool(), I);
    if (Bools.empty())
      return std::nullopt;
    Value *C = Bools[R.next(Bools.size())];
    if (C == I->op(0))
      return std::nullopt;
    I->setOp(0, C);
    return Mutation{MutationKind::SelectTwist,
                    "cond of " + valueLabel(I) + " -> " + valueLabel(C)};
  }

  case MutationKind::BranchTwist: {
    std::vector<Br *> Cands;
    for (const InstrRef &IR : Instrs)
      if (auto *B = dyn_cast<Br>(IR.I); B && B->isConditional())
        Cands.push_back(B);
    if (Cands.empty())
      return std::nullopt;
    Br *B = Cands[R.next(Cands.size())];
    if (R.chance(1, 2)) {
      // Swapping the destinations keeps the predecessor sets intact, so
      // phis in both targets stay valid.
      BasicBlock *T = B->trueDest();
      B->setTrueDest(B->falseDest());
      B->setFalseDest(T);
      return Mutation{MutationKind::BranchTwist,
                      "swapped dests in " + B->parent()->name()};
    }
    std::vector<Value *> Bools = valuesOfType(F, Type::getBool(), B);
    if (Bools.empty())
      return std::nullopt;
    Value *C = Bools[R.next(Bools.size())];
    if (C == B->cond())
      return std::nullopt;
    B->setOp(0, C);
    return Mutation{MutationKind::BranchTwist,
                    "cond in " + B->parent()->name() + " -> " + valueLabel(C)};
  }
  }
  return std::nullopt;
}

} // namespace alive::fuzz::detail

std::string Mutator::mutate(const std::string &ModuleIR,
                            unsigned MaxMutations) {
  Diag Err;
  auto M = parseModule(ModuleIR, Err);
  if (!M || !lastDefined(*M))
    return ModuleIR;
  // Normalize once so "no mutation applied" still returns printer output.
  std::string Text = printModule(*M);

  unsigned Applied = 0;
  // Each attempt draws from the RNG whether or not it lands, so the stream
  // stays deterministic regardless of which sites exist.
  for (unsigned Attempt = 0; Applied < MaxMutations && Attempt < 8 * MaxMutations + 8;
       ++Attempt) {
    Diag D;
    auto Cur = parseModule(Text, D);
    if (!Cur)
      break; // unreachable: Text is printer output
    Function *F = lastDefined(*Cur);
    auto Mut = detail::applyOne(*F, R, FreshNameCounter);
    if (!Mut)
      continue;
    Diag VErr;
    if (!verifyFunction(*F, VErr)) {
      CtrRolledBack.inc();
      continue; // Text unchanged: the broken clone is dropped
    }
    Text = printModule(*Cur);
    Log.push_back(std::move(*Mut));
    CtrApplied.inc();
    ++Applied;
  }
  return Text;
}

std::string Mutator::mutateText(const std::string &Text) {
  static const char Charset[] =
      "()[]{}<>,=%@:*;x0123456789abcdefinoprstuvw \n";
  static const char *Tokens[] = {"define", "i32",   "i999999999999",
                                 "label",  "undef", "poison",
                                 "align",  "to",    "x",
                                 "switch", "phi",   "[4 x",
                                 "{",      "nsw",   "%",
                                 "@",      "i0",    "shufflevector"};
  std::string Out = Text;
  unsigned Edits = 1 + (unsigned)R.next(4);
  for (unsigned E = 0; E < Edits; ++E) {
    if (Out.empty()) {
      Out.push_back(Charset[R.next(sizeof(Charset) - 1)]);
      continue;
    }
    size_t Pos = R.next(Out.size());
    switch (R.next(6)) {
    case 0: // delete a span
      Out.erase(Pos, 1 + R.next(8));
      break;
    case 1: { // duplicate a span
      std::string Span = Out.substr(Pos, 1 + R.next(8));
      Out.insert(Pos, Span);
      break;
    }
    case 2: // insert a random character
      Out.insert(Pos, 1, Charset[R.next(sizeof(Charset) - 1)]);
      break;
    case 3: { // swap two characters
      size_t Pos2 = R.next(Out.size());
      std::swap(Out[Pos], Out[Pos2]);
      break;
    }
    case 4: // truncate
      Out.erase(Pos);
      break;
    default: // splice in a keyword-ish token
      Out.insert(Pos, Tokens[R.next(sizeof(Tokens) / sizeof(Tokens[0]))]);
      break;
    }
  }
  CtrText.inc();
  return Out;
}
