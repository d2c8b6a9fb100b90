//===- tests/support/QueryCacheTest.cpp ---------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// The query/verdict cache in isolation: in-memory behavior (both levels,
// eviction), and the on-disk store (round-trip, append-then-compact,
// version-mismatch rejection, corrupt-line tolerance, directory creation).
//===----------------------------------------------------------------------===//

#include "support/QueryCache.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>

using namespace alive;
using namespace alive::support;

namespace {

Fingerprint fp(uint64_t Hi, uint64_t Lo) {
  Fingerprint F;
  F.Hi = Hi;
  F.Lo = Lo;
  return F;
}

/// A fresh empty directory per test, removed on destruction.
struct TempDir {
  std::filesystem::path P;
  explicit TempDir(const char *Name) {
    P = std::filesystem::temp_directory_path() /
        (std::string("alive2re-qcache-test-") + Name);
    std::filesystem::remove_all(P);
    std::filesystem::create_directories(P);
  }
  ~TempDir() { std::filesystem::remove_all(P); }
  std::string str() const { return P.string(); }
};

TEST(QueryCache, InMemoryPutFind) {
  QueryCache C;
  CachedQuery Q;
  EXPECT_FALSE(C.findQuery(fp(1, 2), Q));

  CachedQuery In;
  In.Result = CachedQueryResult::Sat;
  In.Detail = "counterexample:\n  %a = 3";
  C.putQuery(fp(1, 2), In);
  ASSERT_TRUE(C.findQuery(fp(1, 2), Q));
  EXPECT_EQ(Q.Result, CachedQueryResult::Sat);
  EXPECT_EQ(Q.Detail, In.Detail);
  EXPECT_FALSE(C.findQuery(fp(1, 3), Q));

  CachedVerdict V;
  EXPECT_FALSE(C.findPair(fp(1, 2), V)); // levels are separate keyspaces
  CachedVerdict VIn;
  VIn.Kind = 1;
  VIn.QueriesRun = 6;
  VIn.FailedCheck = "target is more poisonous than source";
  VIn.Detail = "poison at bit 3";
  C.putPair(fp(1, 2), VIn);
  ASSERT_TRUE(C.findPair(fp(1, 2), V));
  EXPECT_EQ(V.Kind, 1);
  EXPECT_EQ(V.QueriesRun, 6u);
  EXPECT_EQ(V.FailedCheck, VIn.FailedCheck);
  EXPECT_EQ(V.Detail, VIn.Detail);
  EXPECT_EQ(C.size(), 2u);
}

TEST(QueryCache, OverwriteReplaces) {
  QueryCache C;
  CachedQuery A, Out;
  A.Result = CachedQueryResult::Unsat;
  C.putQuery(fp(7, 7), A);
  A.Result = CachedQueryResult::Sat;
  A.Detail = "cex";
  C.putQuery(fp(7, 7), A);
  ASSERT_TRUE(C.findQuery(fp(7, 7), Out));
  EXPECT_EQ(Out.Result, CachedQueryResult::Sat);
  EXPECT_EQ(C.size(), 1u);
}

TEST(QueryCache, EvictionBoundsShardSize) {
  QueryCache::Config Cfg;
  Cfg.MaxEntriesPerShard = 8;
  QueryCache C(Cfg);
  // Same Lo % 16 => same shard; the per-shard bound must hold regardless of
  // insert count.
  for (uint64_t I = 0; I < 100; ++I)
    C.putQuery(fp(I, 16 * I), CachedQuery());
  EXPECT_LE(C.size(), 8u);
  EXPECT_GT(C.size(), 0u);
}

TEST(QueryCache, DiskRoundTrip) {
  TempDir D("roundtrip");
  CachedQuery QIn;
  QIn.Result = CachedQueryResult::Sat;
  QIn.Detail = "line one\nline\ttwo \\ end";
  CachedVerdict VIn;
  VIn.Kind = 4;
  VIn.QueriesRun = 3;
  VIn.FailedCheck = "memory refinement";
  VIn.Detail = "";
  {
    QueryCache::Config Cfg;
    Cfg.Dir = D.str();
    QueryCache C(Cfg);
    ASSERT_TRUE(C.load());
    C.putQuery(fp(0xaaa, 0xbbb), QIn);
    C.putPair(fp(0xccc, 0xddd), VIn);
    std::string Err;
    ASSERT_TRUE(C.flush(&Err)) << Err;
  }
  QueryCache::Config Cfg;
  Cfg.Dir = D.str();
  QueryCache C(Cfg);
  std::string Err;
  ASSERT_TRUE(C.load(&Err)) << Err;
  EXPECT_EQ(C.size(), 2u);
  CachedQuery Q;
  ASSERT_TRUE(C.findQuery(fp(0xaaa, 0xbbb), Q));
  EXPECT_EQ(Q.Result, CachedQueryResult::Sat);
  EXPECT_EQ(Q.Detail, QIn.Detail); // escaping round-trips exactly
  CachedVerdict V;
  ASSERT_TRUE(C.findPair(fp(0xccc, 0xddd), V));
  EXPECT_EQ(V.Kind, 4);
  EXPECT_EQ(V.QueriesRun, 3u);
  EXPECT_EQ(V.FailedCheck, VIn.FailedCheck);
  EXPECT_EQ(V.Detail, "");
}

TEST(QueryCache, AppendAcrossRunsAccumulates) {
  TempDir D("append");
  for (uint64_t Run = 0; Run < 3; ++Run) {
    QueryCache::Config Cfg;
    Cfg.Dir = D.str();
    QueryCache C(Cfg);
    ASSERT_TRUE(C.load());
    EXPECT_EQ(C.size(), Run);
    C.putQuery(fp(Run, Run), CachedQuery());
    ASSERT_TRUE(C.flush());
  }
  QueryCache::Config Cfg;
  Cfg.Dir = D.str();
  QueryCache C(Cfg);
  ASSERT_TRUE(C.load());
  EXPECT_EQ(C.size(), 3u);
}

TEST(QueryCache, VersionMismatchRejected) {
  TempDir D("version");
  {
    std::ofstream Out(D.P / QueryCache::FileName);
    Out << "alive2re-qcache 999\n"
        << "Q 00000000000000000000000000000001 0 \\e\n";
  }
  QueryCache::Config Cfg;
  Cfg.Dir = D.str();
  QueryCache C(Cfg);
  std::string Err;
  EXPECT_FALSE(C.load(&Err));
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  EXPECT_EQ(C.size(), 0u);

  // The rejected file is rewritten (with the current version) on flush, so
  // the next run loads cleanly.
  C.putQuery(fp(1, 1), CachedQuery());
  ASSERT_TRUE(C.flush(&Err)) << Err;
  QueryCache C2(Cfg);
  ASSERT_TRUE(C2.load(&Err)) << Err;
  EXPECT_EQ(C2.size(), 1u);
}

TEST(QueryCache, MalformedLinesSkippedAndCompactedAway) {
  TempDir D("corrupt");
  {
    QueryCache::Config Cfg;
    Cfg.Dir = D.str();
    QueryCache C(Cfg);
    ASSERT_TRUE(C.load());
    C.putQuery(fp(5, 6), CachedQuery());
    ASSERT_TRUE(C.flush());
  }
  {
    // Simulate a truncated append (crash mid-write).
    std::ofstream Out(D.P / QueryCache::FileName, std::ios::app);
    Out << "Q deadbeef";
  }
  QueryCache::Config Cfg;
  Cfg.Dir = D.str();
  QueryCache C(Cfg);
  std::string Err;
  // Damaged lines are reported but not fatal: the healthy records load.
  EXPECT_FALSE(C.load(&Err));
  EXPECT_NE(Err.find("malformed"), std::string::npos) << Err;
  EXPECT_EQ(C.size(), 1u);
  ASSERT_TRUE(C.flush());

  // The flush after a damaged load compacts: the file now parses fully.
  std::ifstream In(D.P / QueryCache::FileName);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_EQ(Line, std::string("alive2re-qcache ") +
                      std::to_string(QueryCache::FormatVersion));
  size_t Records = 0;
  while (std::getline(In, Line))
    ++Records;
  EXPECT_EQ(Records, 1u);
}

TEST(QueryCache, FlushToUncreatableDirFails) {
  // flush() creates a missing directory, but none can be made under a
  // regular file.
  TempDir D("uncreatable");
  std::ofstream(D.P / "file") << "not a directory\n";
  QueryCache::Config Cfg;
  Cfg.Dir = (D.P / "file" / "cache").string();
  QueryCache C(Cfg);
  C.putQuery(fp(1, 1), CachedQuery());
  std::string Err;
  EXPECT_FALSE(C.flush(&Err));
  EXPECT_FALSE(Err.empty());
}

TEST(QueryCache, NoDirMeansNoFile) {
  QueryCache C;
  C.putQuery(fp(1, 1), CachedQuery());
  EXPECT_TRUE(C.flush()); // no-op, not an error
  EXPECT_TRUE(C.filePath().empty());
}

} // namespace
