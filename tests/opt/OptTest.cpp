//===- tests/opt/OptTest.cpp ------------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Tests for the optimizer substrate: each correct pass must (a) transform
// its target patterns, (b) leave the function verifier-clean, and (c) pass
// translation validation against its input. Each buggy pass must fire on
// its trigger pattern and FAIL validation — the property the whole
// evaluation relies on.
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"
#include "refine/Validator.h"

#include "gtest/gtest.h"

using namespace alive;
using namespace alive::ir;
using namespace alive::opt;
namespace corpus = alive::corpus;

namespace {

/// Runs \p PassName on \p SrcIR; returns (changed, verdict-vs-original).
struct PassResult {
  bool Changed;
  refine::Verdict V;
  std::string After;
};

PassResult runAndVerify(const char *PassName, const char *SrcIR) {
  smt::resetContext();
  auto M = parseModuleOrDie(SrcIR);
  Function *F = M->function(M->numFunctions() - 1);
  auto Before = F->clone();
  auto P = createPass(PassName);
  EXPECT_TRUE(P) << "unknown pass " << PassName;
  bool Changed = P->run(*F);
  Diag Err;
  EXPECT_TRUE(verifyFunction(*F, Err))
      << PassName << " broke the verifier: " << Err.str() << "\n"
      << printFunction(*F);
  refine::Options Opts;
  Opts.UnrollFactor = 4;
  Opts.Budget.TimeoutSec = 20;
  refine::Verdict V = refine::Validator(Opts).verifyPair(*Before, *F, M.get());
  return {Changed, V, printFunction(*F)};
}

TEST(Opt, InstSimplifyBasics) {
  PassResult R = runAndVerify("instsimplify", R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = add i8 %a, 0
  %y = mul i8 %x, 1
  %z = and i8 %y, %y
  %w = sub i8 %z, %z
  %q = or i8 %w, %b
  ret i8 %q
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_TRUE(R.V.isCorrect()) << R.V.Detail << R.After;
  EXPECT_EQ(R.After.find("add"), std::string::npos) << R.After;
}

TEST(Opt, InstSimplifyMaxPattern) {
  PassResult R = runAndVerify("instsimplify", R"(
define i1 @max1(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  %m = select i1 %c, i32 %x, i32 %y
  %r = icmp slt i32 %m, %x
  ret i1 %r
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_TRUE(R.V.isCorrect()) << R.V.FailedCheck << R.V.Detail;
  EXPECT_NE(R.After.find("ret i1 false"), std::string::npos) << R.After;
}

TEST(Opt, InstCombineMulToShl) {
  PassResult R = runAndVerify("instcombine", R"(
define i16 @f(i16 %a) {
entry:
  %x = mul i16 %a, 8
  ret i16 %x
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_TRUE(R.V.isCorrect()) << R.V.Detail;
  EXPECT_NE(R.After.find("shl"), std::string::npos) << R.After;
}

TEST(Opt, InstCombineSelectUsesFreeze) {
  PassResult R = runAndVerify("instcombine", R"(
define i1 @f(i1 %x, i1 %y) {
entry:
  %r = select i1 %x, i1 %y, i1 false
  ret i1 %r
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_NE(R.After.find("freeze"), std::string::npos)
      << "the sound rewrite freezes the poisonous arm:\n"
      << R.After;
  EXPECT_TRUE(R.V.isCorrect()) << R.V.FailedCheck << ": " << R.V.Detail;
}

TEST(Opt, ConstFold) {
  PassResult R = runAndVerify("constfold", R"(
define i32 @f() {
entry:
  %x = add i32 21, 21
  %y = mul i32 %x, 2
  %c = icmp ult i32 %y, 100
  %z = select i1 %c, i32 %y, i32 0
  ret i32 %z
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_TRUE(R.V.isCorrect()) << R.V.Detail;
}

TEST(Opt, ConstFoldKeepsDivByZero) {
  PassResult R = runAndVerify("constfold", R"(
define i32 @f() {
entry:
  %x = udiv i32 1, 0
  ret i32 %x
}
)");
  EXPECT_NE(R.After.find("udiv"), std::string::npos)
      << "folding away UB would change behavior:\n"
      << R.After;
}

TEST(Opt, DceRemovesDeadKeepsStores) {
  PassResult R = runAndVerify("dce", R"(
define i8 @f(i8 %a, ptr %p) {
entry:
  %dead1 = add i8 %a, 1
  %dead2 = mul i8 %dead1, 3
  store i8 %a, ptr %p
  ret i8 %a
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_TRUE(R.V.isCorrect()) << R.V.Detail;
  EXPECT_EQ(R.After.find("dead"), std::string::npos);
  EXPECT_NE(R.After.find("store"), std::string::npos);
}

TEST(Opt, SimplifyCfgFoldsConstantBranch) {
  PassResult R = runAndVerify("simplifycfg", R"(
define i8 @f(i8 %a) {
entry:
  br i1 true, label %t, label %e
t:
  ret i8 %a
e:
  ret i8 0
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_TRUE(R.V.isCorrect()) << R.V.FailedCheck << R.V.Detail;
}

TEST(Opt, GvnMergesPureDuplicates) {
  PassResult R = runAndVerify("gvn", R"(
define i16 @f(i16 %a, i16 %b) {
entry:
  %x = add i16 %a, %b
  %y = add i16 %a, %b
  %r = xor i16 %x, %y
  ret i16 %r
}
)");
  EXPECT_TRUE(R.Changed);
  EXPECT_TRUE(R.V.isCorrect()) << R.V.Detail;
}

TEST(Opt, GvnDoesNotMergeFreeze) {
  PassResult R = runAndVerify("gvn", R"(
define i8 @f(i8 %a) {
entry:
  %x = freeze i8 %a
  %y = freeze i8 %a
  %r = sub i8 %x, %y
  ret i8 %r
}
)");
  // Two freezes of the same value may pick different values; merging them
  // is a (subtle) miscompilation, so GVN must leave them alone.
  EXPECT_NE(R.After.find("%y"), std::string::npos) << R.After;
  EXPECT_TRUE(R.V.isCorrect());
}

TEST(Opt, SlpVectorizesReduction) {
  const char *Src = R"(
define i8 @f(ptr %x) {
entry:
  %a = load i8, ptr %x
  %g1 = gep ptr %x, i64 1
  %b = load i8, ptr %g1
  %g2 = gep ptr %x, i64 2
  %c = load i8, ptr %g2
  %g3 = gep ptr %x, i64 3
  %d = load i8, ptr %g3
  %s1 = add nsw i8 %a, %b
  %s2 = add nsw i8 %s1, %c
  %r = add nsw i8 %s2, %d
  ret i8 %r
}
)";
  PassResult R = runAndVerify("slp", Src);
  EXPECT_TRUE(R.Changed);
  EXPECT_NE(R.After.find("load <4 x i8>"), std::string::npos) << R.After;
  EXPECT_EQ(R.After.find("nsw"), std::string::npos)
      << "the correct pass must drop nsw:\n"
      << R.After;
  EXPECT_TRUE(R.V.isCorrect()) << R.V.FailedCheck << R.V.Detail;
}

//===----------------------------------------------------------------------===//
// Buggy passes must fire and must fail validation.
//===----------------------------------------------------------------------===//

struct BuggyCase {
  const char *PassName;
  const char *TriggerIR;
};

// Without this, gtest prints the two pointers' raw bytes into each listed
// test name, and address randomisation changes them on every run.
void PrintTo(const BuggyCase &C, std::ostream *OS) { *OS << C.PassName; }

class BuggyPassTest : public ::testing::TestWithParam<BuggyCase> {};

TEST_P(BuggyPassTest, FiresAndFailsValidation) {
  const BuggyCase &C = GetParam();
  PassResult R = runAndVerify(C.PassName, C.TriggerIR);
  EXPECT_TRUE(R.Changed) << C.PassName << " did not fire";
  EXPECT_TRUE(R.V.isIncorrect())
      << C.PassName << " expected a refinement violation, got "
      << R.V.kindName() << "\n"
      << R.After;
}

static const BuggyCase BuggyCases[] = {
    {"bug-undef-fold", R"(
define i8 @f() {
entry:
  %x = and i8 undef, 15
  ret i8 %x
}
)"},
    {"bug-select-arith", R"(
define i1 @f(i1 %x, i1 %y) {
entry:
  %r = select i1 %x, i1 %y, i1 false
  ret i1 %r
}
)"},
    {"bug-branch-on-undef", R"(
define i8 @f(i8 %x, i8 %y) {
entry:
  %s = add nsw i8 %x, %y
  %cc = icmp slt i8 %s, %x
  %r = select i1 %cc, i8 1, i8 2
  ret i8 %r
}
)"},
    {"bug-vector", R"(
define <2 x i8> @f(<2 x i8> %v) {
entry:
  %s = shufflevector <2 x i8> %v, <2 x i8> %v, <2 x i32> <i32 0, i32 undef>
  ret <2 x i8> %s
}
)"},
    {"bug-arith", R"(
define i8 @f(i8 %x) {
entry:
  %a = shl i8 %x, 2
  %b = lshr i8 %a, 2
  ret i8 %b
}
)"},
    {"bug-fastmath", R"(
define float @f(float %a, float %b) {
entry:
  %c = fmul nsz float %a, %b
  %r = fadd float %c, 0.0
  ret float %r
}
)"},
    {"bug-dse", R"(
define void @f(ptr %p) {
entry:
  store i8 1, ptr %p
  ret void
}
)"},
    {"bug-call-dup", R"(
declare i8 @ext(i8)
define i8 @f(i8 %a) {
entry:
  %r = call i8 @ext(i8 %a)
  ret i8 %r
}
)"},
    {"bug-slp-nsw", R"(
define i8 @f(ptr %x) {
entry:
  %a = load i8, ptr %x
  %g1 = gep ptr %x, i64 1
  %b = load i8, ptr %g1
  %g2 = gep ptr %x, i64 2
  %c = load i8, ptr %g2
  %g3 = gep ptr %x, i64 3
  %d = load i8, ptr %g3
  %s1 = add nsw i8 %a, %b
  %s2 = add nsw i8 %s1, %c
  %r = add nsw i8 %s2, %d
  ret i8 %r
}
)"},
};

INSTANTIATE_TEST_SUITE_P(AllBuggyPasses, BuggyPassTest,
                         ::testing::ValuesIn(BuggyCases),
                         [](const auto &Info) {
                           std::string N = Info.param.PassName;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

TEST(Opt, PipelineOnGeneratedCodeIsSound) {
  // The whole correct pipeline over generated functions must validate.
  for (unsigned I = 0; I < 6; ++I) {
    smt::resetContext();
    std::string IR =
        corpus::generateFunctionIR(0x9000 + I, false, I % 2 == 0);
    auto M = parseModuleOrDie(IR);
    Function *F = M->function(0);
    auto Before = F->clone();
    opt::runPipeline(*M, opt::defaultPipeline());
    Diag Err;
    ASSERT_TRUE(verifyFunction(*F, Err)) << Err.str() << printFunction(*F);
    refine::Options Opts;
    Opts.UnrollFactor = 6;
    Opts.Budget.TimeoutSec = 20;
    refine::Verdict V = refine::Validator(Opts).verifyPair(*Before, *F, M.get());
    EXPECT_FALSE(V.isIncorrect())
        << "pipeline miscompiled seed " << I << ": " << V.FailedCheck << "\n"
        << printFunction(*Before) << "\n=>\n" << printFunction(*F);
  }
}

} // namespace
