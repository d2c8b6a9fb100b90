//===- tests/support/TraceTest.cpp ------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Focused tests for the JSONL trace layer: jsonEscape edge cases (control
// characters, quote/backslash runs, UTF-8 passthrough), the mandatory
// "tid"/"span" attribution fields every line carries, and the close records
// that spans write.
//===----------------------------------------------------------------------===//

#include "smt/ExistsForall.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace alive;

namespace {

std::vector<std::string> lines(const std::ostringstream &SS) {
  std::vector<std::string> Out;
  std::istringstream In(SS.str());
  std::string L;
  while (std::getline(In, L))
    Out.push_back(L);
  return Out;
}

// ---- jsonEscape edge cases ------------------------------------------------

TEST(TraceEscape, EmptyString) { EXPECT_EQ(trace::jsonEscape(""), ""); }

TEST(TraceEscape, NamedControlEscapes) {
  EXPECT_EQ(trace::jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(trace::jsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(trace::jsonEscape("a\tb"), "a\\tb");
}

TEST(TraceEscape, NumericControlEscapes) {
  // Everything below 0x20 without a short form goes through \u00XX.
  EXPECT_EQ(trace::jsonEscape(std::string(1, '\x00')), "\\u0000");
  EXPECT_EQ(trace::jsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(trace::jsonEscape(std::string(1, '\x1f')), "\\u001f");
  // 0x20 (space) is the first character passed through verbatim.
  EXPECT_EQ(trace::jsonEscape(" "), " ");
}

TEST(TraceEscape, QuoteAndBackslashRuns) {
  EXPECT_EQ(trace::jsonEscape("\""), "\\\"");
  EXPECT_EQ(trace::jsonEscape("\\"), "\\\\");
  EXPECT_EQ(trace::jsonEscape("\\\""), "\\\\\\\"");
  EXPECT_EQ(trace::jsonEscape("\\\\"), "\\\\\\\\");
  // A string that is already escaped gets escaped again, not passed through.
  EXPECT_EQ(trace::jsonEscape("\\n"), "\\\\n");
}

TEST(TraceEscape, Utf8PassesThrough) {
  // Multi-byte UTF-8 sequences have every byte >= 0x80 and must survive
  // unmodified (JSON strings are UTF-8; only ASCII control chars escape).
  std::string Snowman = "\xe2\x98\x83";        // U+2603
  std::string Accent = "caf\xc3\xa9";          // café
  std::string Emoji = "\xf0\x9f\x99\x82";      // U+1F642, 4-byte sequence
  EXPECT_EQ(trace::jsonEscape(Snowman), Snowman);
  EXPECT_EQ(trace::jsonEscape(Accent), Accent);
  EXPECT_EQ(trace::jsonEscape(Emoji), Emoji);
}

TEST(TraceEscape, MixedContent) {
  EXPECT_EQ(trace::jsonEscape("say \"hi\"\n\tdone\x02"),
            "say \\\"hi\\\"\\n\\tdone\\u0002");
}

// ---- tid / span attribution fields ----------------------------------------

TEST(TraceFields, EveryEventCarriesTidAndSpan) {
  std::ostringstream SS;
  trace::setStream(&SS);
  trace::Event("plain").num("x", 1);
  trace::setStream(nullptr);
  auto Ls = lines(SS);
  ASSERT_EQ(Ls.size(), 1u);
  EXPECT_NE(Ls[0].find("\"tid\":"), std::string::npos);
  EXPECT_NE(Ls[0].find("\"span\":"), std::string::npos);
  // Header order is part of the schema: event, t, tid, span, then fields.
  size_t T = Ls[0].find("\"t\":"), Tid = Ls[0].find("\"tid\":"),
         Span = Ls[0].find("\"span\":"), X = Ls[0].find("\"x\":");
  EXPECT_LT(T, Tid);
  EXPECT_LT(Tid, Span);
  EXPECT_LT(Span, X);
}

TEST(TraceFields, SpanZeroOutsideAnySpan) {
  // Profiling off and no span open: attribution is explicit, not absent.
  ASSERT_FALSE(prof::enabled());
  std::ostringstream SS;
  trace::setStream(&SS);
  trace::Event("orphan").num("x", 1);
  trace::setStream(nullptr);
  auto Ls = lines(SS);
  ASSERT_EQ(Ls.size(), 1u);
  EXPECT_NE(Ls[0].find("\"span\":0"), std::string::npos);
}

TEST(TraceFields, SpanMatchesEnclosingProfSpan) {
  prof::start();
  std::ostringstream SS;
  trace::setStream(&SS);
  uint64_t Id;
  {
    prof::Span S("phase_under_test");
    Id = S.id();
    ASSERT_NE(Id, 0u);
    EXPECT_EQ(prof::currentSpanId(), Id);
    trace::Event("inside").num("x", 1);
  }
  trace::Event("outside").num("x", 2);
  trace::setStream(nullptr);
  prof::stop();
  prof::clear();

  // The point events and, between them, the span's own close record.
  auto Ls = lines(SS);
  ASSERT_EQ(Ls.size(), 3u);
  EXPECT_EQ(Ls[0].rfind("{\"event\":\"inside\",", 0), 0u) << Ls[0];
  EXPECT_NE(Ls[0].find("\"span\":" + std::to_string(Id)), std::string::npos);
  EXPECT_EQ(Ls[1].rfind("{\"event\":\"phase_under_test\",", 0), 0u)
      << Ls[1];
  EXPECT_NE(Ls[1].find("\"span\":" + std::to_string(Id) + ","),
            std::string::npos);
  EXPECT_EQ(Ls[2].rfind("{\"event\":\"outside\",", 0), 0u) << Ls[2];
  EXPECT_NE(Ls[2].find("\"span\":0"), std::string::npos);
}

// ---- span close records ---------------------------------------------------

TEST(TraceSpans, NestedSpansWriteOneLineEachChildFirst) {
  // Profiling off: an attached sink alone turns spans on.
  ASSERT_FALSE(prof::enabled());
  std::ostringstream SS;
  trace::setStream(&SS);
  uint64_t OuterId, InnerId;
  {
    prof::Span Outer("outer_phase", "f \"quoted\"");
    OuterId = Outer.id();
    Outer.num("pairs", 3);
    {
      prof::Span Inner("inner_phase");
      InnerId = Inner.id();
      Inner.str("result", "unsat").flag("cached", false);
    }
  }
  trace::setStream(nullptr);
  ASSERT_NE(OuterId, 0u);
  ASSERT_NE(InnerId, 0u);
  // Records are collected only while profiling is on.
  EXPECT_TRUE(prof::snapshot().empty());

  auto Ls = lines(SS);
  ASSERT_EQ(Ls.size(), 2u);
  const std::string &In = Ls[0], &Out = Ls[1];
  EXPECT_EQ(In.rfind("{\"event\":\"inner_phase\",", 0), 0u) << In;
  EXPECT_EQ(Out.rfind("{\"event\":\"outer_phase\",", 0), 0u) << Out;
  for (const std::string &L : Ls) {
    EXPECT_EQ(std::count(L.begin(), L.end(), '{'), 1) << L;
    EXPECT_EQ(L.back(), '}') << L;
    EXPECT_NE(L.find("\"seconds\":"), std::string::npos) << L;
    EXPECT_NE(L.find("\"conflicts\":0"), std::string::npos) << L;
  }
  EXPECT_NE(In.find("\"span\":" + std::to_string(InnerId) + ","),
            std::string::npos)
      << In;
  EXPECT_NE(In.find("\"parent\":" + std::to_string(OuterId) + ","),
            std::string::npos)
      << In;
  EXPECT_NE(In.find("\"result\":\"unsat\""), std::string::npos) << In;
  EXPECT_NE(In.find("\"cached\":false"), std::string::npos) << In;
  EXPECT_NE(Out.find("\"span\":" + std::to_string(OuterId) + ","),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"parent\":0,"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"detail\":\"f \\\"quoted\\\"\""), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"pairs\":3"), std::string::npos) << Out;
}

TEST(TraceSpans, EfSearchRecordCountsInstantiations) {
  // exists x . not exists y . y > x: every candidate below the maximum is
  // spurious and costs one instantiation of the universal.
  smt::Expr X = smt::mkFreshVar("x", 8), Y = smt::mkFreshVar("y", 8);
  smt::EFQuery Q;
  Q.Inner = smt::mkUgt(Y, X);
  Q.InnerVars = {Y.id()};
  std::ostringstream SS;
  trace::setStream(&SS);
  smt::EFOutcome R = smt::solveExistsForall(Q, smt::SolverBudget());
  trace::setStream(nullptr);
  ASSERT_EQ(R.Res, smt::SatResult::Sat);
  EXPECT_EQ(R.Instantiations, R.Iterations - 1);

  std::string Rec;
  for (const std::string &L : lines(SS))
    if (L.rfind("{\"event\":\"ef_search\",", 0) == 0)
      Rec = L;
  ASSERT_FALSE(Rec.empty()) << SS.str();
  EXPECT_NE(Rec.find("\"instantiations\":" +
                     std::to_string(R.Instantiations) + ","),
            std::string::npos)
      << Rec;
  EXPECT_NE(Rec.find("\"seeds_accepted\":"), std::string::npos) << Rec;
  EXPECT_NE(Rec.find("\"seeds_skipped\":"), std::string::npos) << Rec;
}

TEST(TraceSpans, NothingWrittenWhenOff) {
  ASSERT_FALSE(prof::enabled());
  std::ostringstream SS;
  trace::setStream(&SS);
  trace::setStream(nullptr);
  {
    prof::Span S("ghost", "d");
    S.num("x", 1).str("y", "z");
    EXPECT_EQ(S.id(), 0u);
    EXPECT_EQ(prof::currentSpanId(), 0u);
  }
  EXPECT_TRUE(SS.str().empty());
  EXPECT_TRUE(prof::snapshot().empty());
}

TEST(TraceFields, TidIsStablePerThread) {
  std::ostringstream SS;
  trace::setStream(&SS);
  trace::Event("one").num("x", 1);
  trace::Event("two").num("x", 2);
  trace::setStream(nullptr);
  auto Ls = lines(SS);
  ASSERT_EQ(Ls.size(), 2u);
  std::string Tid = "\"tid\":" + std::to_string(prof::threadId());
  EXPECT_NE(Ls[0].find(Tid), std::string::npos);
  EXPECT_NE(Ls[1].find(Tid), std::string::npos);
}

} // namespace
