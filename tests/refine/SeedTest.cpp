//===- tests/refine/SeedTest.cpp --------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// The instantiation seeds pair each live inner source choice with the
// target (or premise) choice of the same origin, by rank among the live
// choices. These correct pairs need many CEGIS rounds when the seeds pair
// the wrong choices: smax and reassociation when the two sides read their
// inputs a different number of times, and a generated function that reads
// one argument twice in one instruction (mapping every choice of an origin
// to its last live partner takes hundreds of rounds there). Each must be
// Correct within a few rounds per staged query.
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "refine/Validator.h"

#include "gtest/gtest.h"

#include <string>

using namespace alive;
using namespace alive::refine;

namespace {

constexpr unsigned MaxRounds = 5;

void expectCorrectInFewRounds(const std::string &SrcIR,
                              const std::string &TgtIR) {
  smt::resetContext();
  auto SrcM = ir::parseModuleOrDie(SrcIR);
  auto TgtM = ir::parseModuleOrDie(TgtIR);
  const ir::Function *SF = SrcM->function(SrcM->numFunctions() - 1);
  const ir::Function *TF = TgtM->functionByName(SF->name());
  Options Opts;
  Opts.Cache = CachePolicy::disabled();
  Opts.Budget.TimeoutSec = 30;
  Verdict V = Validator(Opts).verifyPair(*SF, *TF, SrcM.get());
  EXPECT_TRUE(V.isCorrect()) << V.kindName() << " at '" << V.FailedCheck
                             << "': " << V.Detail;
  ASSERT_FALSE(V.Queries.empty());
  for (const QueryStats &Q : V.Queries)
    EXPECT_LE(Q.EFIterations, MaxRounds) << Q.Check;
}

/// select (icmp sgt a, b), a, b  ==>  smax(a, b) at width \p W.
void smaxFold(unsigned W) {
  std::string T = "i" + std::to_string(W);
  expectCorrectInFewRounds("define " + T + " @f(" + T + " %a, " + T +
                               " %b) {\nentry:\n  %c = icmp sgt " + T +
                               " %a, %b\n  %m = select i1 %c, " + T +
                               " %a, " + T + " %b\n  ret " + T + " %m\n}\n",
                           "define " + T + " @f(" + T + " %a, " + T +
                               " %b) {\nentry:\n  %m = call " + T +
                               " @llvm.smax." + T + "(" + T + " %a, " + T +
                               " %b)\n  ret " + T + " %m\n}\n");
}

/// (a + b) + c  ==>  (a + c) + b at width \p W; the source adds carry
/// \p SrcFlags, the target's none.
void reassoc(unsigned W, const std::string &SrcFlags) {
  std::string T = "i" + std::to_string(W);
  auto fn = [&](const char *X, const char *Y, const std::string &Flags) {
    return "define " + T + " @f(" + T + " %a, " + T + " %b, " + T +
           " %c) {\nentry:\n  %x = add " + Flags + T + " %a, %" + X +
           "\n  %y = add " + Flags + T + " %x, %" + Y + "\n  ret " + T +
           " %y\n}\n";
  };
  expectCorrectInFewRounds(fn("b", "c", SrcFlags), fn("c", "b", ""));
}

TEST(SeedRule, SmaxFoldI8) { smaxFold(8); }
TEST(SeedRule, SmaxFoldI16) { smaxFold(16); }
TEST(SeedRule, SmaxFoldI32) { smaxFold(32); }

TEST(SeedRule, ReassocI8) { reassoc(8, ""); }
TEST(SeedRule, ReassocI16) { reassoc(16, ""); }
TEST(SeedRule, ReassocDropNswI8) { reassoc(8, "nsw "); }
TEST(SeedRule, ReassocDropNswI16) { reassoc(16, "nsw "); }

// Dead-code elimination on a generated function: `add %a0, %a0` reads one
// argument twice, so its two undef choices need two distinct partners.
TEST(SeedRule, DceKeepsDoubleRead) {
  expectCorrectInFewRounds(R"(
define i8 @f(i8 %a0, i8 %a1, i8 %a2) {
entry:
  %v0 = shl i8 %a1, %a1
  %v1 = add i8 %a0, %a0
  %v2 = add i8 -1, %a1
  %v3 = lshr i8 2, %v1
  %v4 = lshr i8 3, %a1
  %v5 = ashr i8 %v2, %a1
  %v6 = or i8 %v1, %a2
  %p7 = icmp slt i8 %a0, %v0
  %q8 = icmp ne i8 %a2, %v1
  %s9 = and i1 %p7, %q8
  %z10 = zext i1 %s9 to i8
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %inext, %loop ]
  %acc = phi i8 [ 0, %entry ], [ %accnext, %loop ]
  %accnext = add i8 %acc, %v6
  %inext = add i8 %i, 1
  %lc = icmp eq i8 %inext, 1
  br i1 %lc, label %done, label %loop
done:
  ret i8 %accnext
}
)",
                           R"(
define i8 @f(i8 %a0, i8 %a1, i8 %a2) {
entry:
  %v1 = add i8 %a0, %a0
  %v6 = or i8 %v1, %a2
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %inext, %loop ]
  %acc = phi i8 [ 0, %entry ], [ %accnext, %loop ]
  %accnext = add i8 %acc, %v6
  %inext = add i8 %i, 1
  %lc = icmp eq i8 %inext, 1
  br i1 %lc, label %done, label %loop
done:
  ret i8 %accnext
}
)");
}

// Dead-code elimination next to undef constants and a local slot: the
// target keeps fewer undef reads than the source.
TEST(SeedRule, DceDropsUndefReads) {
  expectCorrectInFewRounds(R"(
define i32 @f(i32 %a0, i32 %a1, i32 %a2) {
entry:
  %slot = alloca i32, align 4
  store i32 %a0, ptr %slot
  %v0 = mul i32 %a2, %a2
  %v1 = mul i32 %a1, 3
  %v2 = or i32 undef, 2
  %v3 = add i32 %a0, %a2
  %v4 = and i32 %a2, undef
  %v5 = lshr i32 %v0, 1
  %v6 = ashr i32 %v0, -3
  %p7 = icmp slt i32 undef, %v3
  %q8 = icmp ne i32 2, %v3
  %s9 = and i1 %p7, %q8
  %z10 = zext i1 %s9 to i32
  %m11 = load i32, ptr %slot
  %c12 = icmp slt i32 %a2, 1
  br i1 %c12, label %t, label %e
e:
  ret i32 %z10
t:
  ret i32 %v6
}
)",
                           R"(
define i32 @f(i32 %a0, i32 %a1, i32 %a2) {
entry:
  %slot = alloca i32, align 4
  store i32 %a0, ptr %slot
  %v0 = mul i32 %a2, %a2
  %v3 = add i32 %a0, %a2
  %v6 = ashr i32 %v0, -3
  %p7 = icmp slt i32 undef, %v3
  %q8 = icmp ne i32 2, %v3
  %s9 = and i1 %p7, %q8
  %z10 = zext i1 %s9 to i32
  %m11 = load i32, ptr %slot
  %c12 = icmp slt i32 %a2, 1
  br i1 %c12, label %t, label %e
e:
  ret i32 %z10
t:
  ret i32 %v6
}
)");
}

// A `select i1 %p, i1 %q, i1 false` rewritten to `and` over a `mul nsw`
// that feeds a branch condition.
TEST(SeedRule, SelectToAndOverMulNsw) {
  expectCorrectInFewRounds(R"(
define i16 @f(i16 %a0, i16 %a1, i16 %a2) {
entry:
  %slot = alloca i16, align 4
  store i16 %a1, ptr %slot
  %v0 = mul nsw i16 %a2, %a1
  %v1 = or i16 %a1, %a0
  %v2 = or i16 %v0, %a2
  %v3 = xor i16 %v2, -3
  %v4 = add i16 %v3, 1
  %p5 = icmp slt i16 %v1, %v3
  %q6 = icmp ne i16 3, %a2
  %s7 = select i1 %p5, i1 %q6, i1 false
  %z8 = zext i1 %s7 to i16
  %c9 = icmp slt i16 %a1, %z8
  br i1 %c9, label %t, label %e
e:
  ret i16 %a1
t:
  ret i16 -3
}
)",
                           R"(
define i16 @f(i16 %a0, i16 %a1, i16 %a2) {
entry:
  %slot = alloca i16, align 4
  store i16 %a1, ptr %slot
  %v0 = mul nsw i16 %a2, %a1
  %v1 = or i16 %a1, %a0
  %v2 = or i16 %v0, %a2
  %v3 = xor i16 %v2, -3
  %v4 = add i16 %v3, 1
  %p5 = icmp slt i16 %v1, %v3
  %q6 = icmp ne i16 3, %a2
  %s7 = and i1 %p5, %q6
  %z8 = zext i1 %s7 to i16
  %c9 = icmp slt i16 %a1, %z8
  br i1 %c9, label %t, label %e
e:
  ret i16 %a1
t:
  ret i16 -3
}
)");
}

} // namespace
