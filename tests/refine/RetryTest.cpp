//===- tests/refine/RetryTest.cpp - Resource governance ----------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// The resource-governance tentpole end to end: the budget-escalation retry
// ladder (deterministic: rung 0 is strangled by a sub-measurable budget,
// rung 1 solves), batch deadlines (undispatched pairs come back as
// DeadlineSkipped, never Timeout), the cache discipline (only the ladder's
// final verdict is cached), and — under the concurrency label (tier 2,
// TSan) — the memory watchdog cancelling parallel in-flight pairs.
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "refine/Validator.h"
#include "support/ResourceGovernor.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <sstream>
#include <string>
#include <vector>

using namespace alive;
using namespace alive::refine;

namespace {

const char *EasySrc = R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = add i8 %a, %b
  %y = sub i8 %x, %b
  ret i8 %y
}
)";
const char *EasyTgt = R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  ret i8 %a
}
)";

// 64-bit multiplier associativity: sound but far beyond any CDCL budget a
// test would wait for, so the pair reliably burns whatever timeout it gets.
const char *HardSrc = R"(
define i64 @f(i64 %a, i64 %b, i64 %c) {
entry:
  %ab = mul i64 %a, %b
  %r = mul i64 %ab, %c
  ret i64 %r
}
)";
const char *HardTgt = R"(
define i64 @f(i64 %a, i64 %b, i64 %c) {
entry:
  %bc = mul i64 %b, %c
  %r = mul i64 %a, %bc
  ret i64 %r
}
)";

// Rung 0's budget is exhausted before the first staged query can start
// (1ns of wall budget is always already spent), so the base attempt is a
// deterministic Timeout with a budget-shaped reason; the escalated rung
// gets Multiplier * 1ns, a budget the easy pair solves comfortably.
Options ladderOpts() {
  Options O;
  O.Budget.TimeoutSec = 1e-9;
  O.Retry.MaxRungs = 1;
  O.Retry.Multiplier = 3e10; // rung 1: 30s
  O.Cache = CachePolicy::disabled();
  return O;
}

TEST(Retry, LadderEscalatesTimeoutToCorrect) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);

  // Without the ladder: the strangled budget is a final Timeout.
  Options Flat = ladderOpts();
  Flat.Retry.MaxRungs = 0;
  Verdict V0 = Validator(Flat).verifyPair(*SrcM->function(0u),
                                          *TgtM->function(0u), SrcM.get());
  ASSERT_EQ(V0.Kind, VerdictKind::Timeout);
  EXPECT_EQ(V0.Why, Reason::BudgetExhausted);
  EXPECT_EQ(V0.Rung, 0u);

  // With one rung: same pair resolves on the escalated budget, and the
  // verdict records where it happened and what the whole ladder cost.
  Validator V(ladderOpts());
  Verdict R = V.verifyPair(*SrcM->function(0u), *TgtM->function(0u),
                           SrcM.get());
  EXPECT_EQ(R.Kind, VerdictKind::Correct);
  EXPECT_EQ(R.Rung, 1u);
  EXPECT_EQ(R.Why, Reason::None);
  EXPECT_GE(R.CumulativeSeconds, R.Seconds);
}

TEST(Retry, UnfiredCountersAreListedAsZero) {
  // An easy pair with no ladder: no retry, deadline or skipped seed ever
  // happens, and each of those totals still reads 0 rather than missing.
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  stats::Registry::get().reset();
  Options O;
  O.Cache = CachePolicy::disabled();
  Verdict R = Validator(O).verifyPair(*SrcM->function(0u),
                                      *TgtM->function(0u), SrcM.get());
  ASSERT_EQ(R.Kind, VerdictKind::Correct);
  stats::Snapshot S = stats::Registry::get().snapshot();
  for (const char *Name :
       {"ef.seeds_skipped", "retry.attempts", "retry.exhausted",
        "retry.requeued", "retry.resolved", "deadline.skipped"}) {
    bool Listed = false;
    for (const auto &[N, V] : S.Counters)
      if (N == Name) {
        Listed = true;
        EXPECT_EQ(V, 0u) << Name;
      }
    EXPECT_TRUE(Listed) << Name;
  }
}

TEST(Retry, ExhaustedLadderSaysSo) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Options O = ladderOpts();
  O.Retry.Multiplier = 2; // rung 1: 2ns — still strangled
  std::ostringstream Sink;
  trace::setStream(&Sink);
  Verdict R = Validator(O).verifyPair(*SrcM->function(0u),
                                      *TgtM->function(0u), SrcM.get());
  trace::setStream(nullptr);
  EXPECT_EQ(R.Kind, VerdictKind::Timeout);
  EXPECT_EQ(R.Rung, 1u);
  EXPECT_EQ(R.Why, Reason::RetriesExhausted);

  // One verdict event per rung; the last one carries the reason the caller
  // sees, not the attempt's budget reason.
  std::vector<std::string> Verdicts;
  std::istringstream In(Sink.str());
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("{\"event\":\"verdict\",", 0) == 0)
      Verdicts.push_back(Line);
  ASSERT_EQ(Verdicts.size(), 2u);
  EXPECT_NE(Verdicts.back().find("\"reason\":\"retries-exhausted\""),
            std::string::npos)
      << Verdicts.back();
  EXPECT_NE(Verdicts.back().find("\"rung\":1"), std::string::npos)
      << Verdicts.back();
}

TEST(Retry, BatchLadderMatchesSinglePairLadder) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Validator V(ladderOpts());
  unsigned Emitted = 0;
  V.onVerdict([&](const PairResult &) { ++Emitted; });
  auto Results = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].V.Kind, VerdictKind::Correct);
  EXPECT_EQ(Results[0].V.Rung, 1u);
  // Only the final verdict streams: the rung-0 timeout is not emitted.
  EXPECT_EQ(Emitted, 1u);
  BatchSummary S = summarize(Results);
  EXPECT_EQ(S.Retried, 1u);
  EXPECT_EQ(S.Correct, 1u);
}

TEST(Retry, OnlyFinalVerdictReachesTheCache) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Options O = ladderOpts();
  O.Cache = CachePolicy();        // both levels on, in-memory
  O.Cache.QueryLevel = false;     // isolate the pair level
  Validator V(O);
  Verdict First = V.verifyPair(*SrcM->function(0u), *TgtM->function(0u),
                               SrcM.get());
  ASSERT_EQ(First.Kind, VerdictKind::Correct);
  ASSERT_EQ(First.Rung, 1u);
  EXPECT_FALSE(First.Cached);
  // Second run: rung 0 times out again (its budget fingerprint has no
  // entry — the rung-0 Timeout was never cached), rung 1 replays the
  // cached Correct. A cached rung-0 Timeout would surface here as a
  // Cached Timeout verdict instead.
  Verdict Second = V.verifyPair(*SrcM->function(0u), *TgtM->function(0u),
                                SrcM.get());
  EXPECT_EQ(Second.Kind, VerdictKind::Correct);
  EXPECT_TRUE(Second.Cached);
  EXPECT_EQ(Second.Why, Reason::Cached);
  EXPECT_EQ(Second.Rung, 1u);
}

TEST(Retry, DeadlineSkipsUndispatchedPairsDistinctly) {
  auto HardSrcM = ir::parseModuleOrDie(HardSrc);
  auto HardTgtM = ir::parseModuleOrDie(HardTgt);
  auto EasySrcM = ir::parseModuleOrDie(EasySrc);
  auto EasyTgtM = ir::parseModuleOrDie(EasyTgt);

  Options O;
  O.Budget.TimeoutSec = 30; // the deadline, not the query budget, must trip
  O.Cache = CachePolicy::disabled();
  O.GovernorSampleSec = 0.002;
  Validator V(O);

  std::vector<Validator::PairTask> Tasks;
  Tasks.push_back({HardSrcM->function(0u), HardTgtM->function(0u),
                   HardSrcM.get(), "hard"});
  for (int I = 0; I < 3; ++I)
    Tasks.push_back({EasySrcM->function(0u), EasyTgtM->function(0u),
                     EasySrcM.get(), "easy-" + std::to_string(I)});

  // Serial batch with a per-call deadline: task 0 dispatches immediately,
  // burns past the deadline and is cancelled in flight; tasks 1..3 must
  // come back DeadlineSkipped — never Timeout.
  auto Results = V.verifyBatch(Tasks, /*Jobs=*/1, /*DeadlineSec=*/0.05);
  ASSERT_EQ(Results.size(), 4u);
  EXPECT_EQ(Results[0].V.Kind, VerdictKind::Timeout);
  for (size_t I = 1; I < Results.size(); ++I) {
    EXPECT_EQ(Results[I].V.Kind, VerdictKind::DeadlineSkipped) << I;
    EXPECT_EQ(Results[I].V.Why, Reason::DeadlineSkipped) << I;
    EXPECT_NE(Results[I].V.Kind, VerdictKind::Timeout) << I;
  }
  BatchSummary S = summarize(Results);
  EXPECT_EQ(S.DeadlineSkipped, 3u);
  EXPECT_EQ(S.Timeout, 1u);

  // The deadline re-arms per call: the same Validator verifies the easy
  // pairs fine afterwards.
  auto Clean = V.verifyBatch({Tasks[1]}, /*Jobs=*/1, /*DeadlineSec=*/30);
  ASSERT_EQ(Clean.size(), 1u);
  EXPECT_EQ(Clean[0].V.Kind, VerdictKind::Correct);
}

TEST(Retry, DeadlineNeverRetriesPastExpiry) {
  auto SrcM = ir::parseModuleOrDie(EasySrc);
  auto TgtM = ir::parseModuleOrDie(EasyTgt);
  Options O = ladderOpts();
  O.Retry.MaxRungs = 8;
  O.Retry.Multiplier = 1.5; // every rung stays strangled (~1ns scale)
  O.GovernorSampleSec = 0.002;
  Validator V(O);
  // An already-expired deadline: rung 0 must not spawn rung 1.
  auto Results = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1,
                                 /*DeadlineSec=*/1e-9);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].V.Kind, VerdictKind::DeadlineSkipped);
  EXPECT_EQ(Results[0].V.Rung, 0u);
}

// Tier-2 (concurrency label): the watchdog under parallel load. An
// unreachable 1-byte RSS bound trips on every sample, shedding the
// longest-running pair each tick until nothing is in flight; every pair
// must come back OutOfMemory/WatchdogCancelled on its base rung (watchdog
// cancellations are not retried even though the ladder is armed).
TEST(Retry, WatchdogCancelsParallelPairs) {
  if (support::ResourceGovernor::processRssBytes() == 0)
    GTEST_SKIP() << "RSS sampling unsupported on this platform";
  auto SrcM = ir::parseModuleOrDie(HardSrc);
  auto TgtM = ir::parseModuleOrDie(HardTgt);

  Options O;
  O.Budget.TimeoutSec = 30;
  O.Cache = CachePolicy::disabled();
  O.MaxRssBytes = 1;
  O.GovernorSampleSec = 0.001;
  O.Retry.MaxRungs = 2; // must NOT fire for watchdog cancellations
  Validator V(O);

  std::vector<Validator::PairTask> Tasks;
  for (int I = 0; I < 4; ++I)
    Tasks.push_back({SrcM->function(0u), TgtM->function(0u), SrcM.get(),
                     "hard-" + std::to_string(I)});
  auto Results = V.verifyBatch(Tasks, /*Jobs=*/4);
  ASSERT_EQ(Results.size(), 4u);
  for (const PairResult &R : Results) {
    EXPECT_EQ(R.V.Kind, VerdictKind::OutOfMemory) << R.Name;
    EXPECT_EQ(R.V.Why, Reason::WatchdogCancelled) << R.Name;
    EXPECT_EQ(R.V.Rung, 0u) << R.Name;
  }
  EXPECT_EQ(summarize(Results).OutOfMemory, 4u);
}

} // namespace
