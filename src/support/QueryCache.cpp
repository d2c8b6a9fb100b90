//===- support/QueryCache.cpp - Two-level verification cache -----------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/QueryCache.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace alive;
using namespace alive::support;

ALIVE_STAT_COUNTER(QueryHits, "cache.query.hits");
ALIVE_STAT_COUNTER(QueryMisses, "cache.query.misses");
ALIVE_STAT_COUNTER(PairHits, "cache.pair.hits");
ALIVE_STAT_COUNTER(PairMisses, "cache.pair.misses");
ALIVE_STAT_COUNTER(Evictions, "cache.evictions");
ALIVE_STAT_COUNTER(Loaded, "cache.disk.loaded");
ALIVE_STAT_COUNTER(Appended, "cache.disk.appended");

namespace {

/// One-token escaping for the line-based store: no spaces or newlines
/// survive, and the empty string gets the distinct token "\e" (a literal
/// backslash is itself escaped, so no collision).
std::string escapeField(const std::string &S) {
  if (S.empty())
    return "\\e";
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case ' ':
      Out += "\\s";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

bool unescapeField(const std::string &S, std::string &Out) {
  if (S == "\\e") {
    Out.clear();
    return true;
  }
  Out.clear();
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\') {
      Out += S[I];
      continue;
    }
    if (++I == S.size())
      return false;
    switch (S[I]) {
    case '\\':
      Out += '\\';
      break;
    case 'n':
      Out += '\n';
      break;
    case 'r':
      Out += '\r';
      break;
    case 't':
      Out += '\t';
      break;
    case 's':
      Out += ' ';
      break;
    default:
      return false;
    }
  }
  return true;
}

std::vector<std::string> splitFields(const std::string &Line) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Line.size()) {
    size_t Space = Line.find(' ', Pos);
    if (Space == std::string::npos)
      Space = Line.size();
    Out.push_back(Line.substr(Pos, Space - Pos));
    Pos = Space + 1;
  }
  return Out;
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + (C - '0');
  }
  Out = V;
  return true;
}

std::string renderQueryLine(const Fingerprint &K, const CachedQuery &V) {
  return "Q " + K.hex() + " " + std::to_string((unsigned)V.Result) + " " +
         escapeField(V.Detail);
}

std::string renderPairLine(const Fingerprint &K, const CachedVerdict &V) {
  return "P " + K.hex() + " " + std::to_string((unsigned)V.Kind) + " " +
         std::to_string(V.QueriesRun) + " " + escapeField(V.FailedCheck) +
         " " + escapeField(V.Detail);
}

} // namespace

QueryCache::QueryCache(Config C) : Cfg(std::move(C)) {
  if (Cfg.MaxEntriesPerShard == 0)
    Cfg.MaxEntriesPerShard = 1;
}

QueryCache::~QueryCache() { flush(); }

std::string QueryCache::filePath() const {
  return Cfg.Dir.empty() ? std::string() : Cfg.Dir + "/" + FileName;
}

bool QueryCache::findQuery(const Fingerprint &K, CachedQuery &Out) {
  Shard &S = shard(K);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Queries.find(K);
  if (It == S.Queries.end()) {
    QueryMisses.inc();
    return false;
  }
  QueryHits.inc();
  Out = It->second;
  return true;
}

bool QueryCache::findPair(const Fingerprint &K, CachedVerdict &Out) {
  Shard &S = shard(K);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Pairs.find(K);
  if (It == S.Pairs.end()) {
    PairMisses.inc();
    return false;
  }
  PairHits.inc();
  Out = It->second;
  return true;
}

template <typename Map, typename Value>
void QueryCache::putIn(Map &M, std::mutex &Mu, const Fingerprint &K,
                       Value V) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (M.size() >= Cfg.MaxEntriesPerShard && !M.count(K)) {
    // Coarse capacity control: drop a quarter of the shard in hash order.
    // The cache is an accelerator, not a source of truth — any entry may
    // vanish; correctness never depends on residency.
    size_t Drop = Cfg.MaxEntriesPerShard / 4 + 1;
    for (auto It = M.begin(); It != M.end() && Drop > 0; --Drop)
      It = M.erase(It);
    Evictions.inc(Cfg.MaxEntriesPerShard / 4 + 1);
  }
  M[K] = std::move(V);
}

void QueryCache::putQuery(const Fingerprint &K, CachedQuery V) {
  if (!Cfg.Dir.empty())
    appendPending(renderQueryLine(K, V));
  putIn(shard(K).Queries, shard(K).Mu, K, std::move(V));
}

void QueryCache::putPair(const Fingerprint &K, CachedVerdict V) {
  if (!Cfg.Dir.empty())
    appendPending(renderPairLine(K, V));
  putIn(shard(K).Pairs, shard(K).Mu, K, std::move(V));
}

void QueryCache::appendPending(std::string Line) {
  std::lock_guard<std::mutex> Lock(DiskMu);
  PendingLines.push_back(std::move(Line));
}

size_t QueryCache::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(const_cast<std::mutex &>(S.Mu));
    N += S.Queries.size() + S.Pairs.size();
  }
  return N;
}

bool QueryCache::load(std::string *Err) {
  if (Cfg.Dir.empty())
    return true;
  std::lock_guard<std::mutex> Lock(DiskMu);
  FileRecords = 0;
  std::ifstream In(filePath());
  if (!In) {
    // First run against this directory: nothing to load, file appears on
    // flush.
    NeedRewrite = true;
    return true;
  }
  std::string Header;
  std::getline(In, Header);
  if (Header != "alive2re-qcache " + std::to_string(FormatVersion)) {
    NeedRewrite = true;
    if (Err)
      *Err = "cache file version mismatch (" + filePath() + "): got '" +
             Header + "', want 'alive2re-qcache " +
             std::to_string(FormatVersion) + "'";
    return false;
  }
  std::string Line;
  size_t Bad = 0, Records = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::vector<std::string> F = splitFields(Line);
    Fingerprint K;
    uint64_t N0 = 0, N1 = 0;
    if (F[0] == "Q" && F.size() == 4 && Fingerprint::fromHex(F[1], K) &&
        parseU64(F[2], N0) && N0 <= (uint64_t)CachedQueryResult::SatApprox) {
      CachedQuery V;
      V.Result = (CachedQueryResult)N0;
      if (unescapeField(F[3], V.Detail)) {
        putIn(shard(K).Queries, shard(K).Mu, K, std::move(V));
        ++Records;
        continue;
      }
    } else if (F[0] == "P" && F.size() == 6 && Fingerprint::fromHex(F[1], K) &&
               parseU64(F[2], N0) && N0 <= 0xff && parseU64(F[3], N1) &&
               N1 <= 0xffffffff) {
      CachedVerdict V;
      V.Kind = (uint8_t)N0;
      V.QueriesRun = (unsigned)N1;
      if (unescapeField(F[4], V.FailedCheck) &&
          unescapeField(F[5], V.Detail)) {
        putIn(shard(K).Pairs, shard(K).Mu, K, std::move(V));
        ++Records;
        continue;
      }
    }
    ++Bad;
  }
  FileRecords = Records;
  Loaded.inc(Records);
  // Torn appends (e.g. a killed process) only cost the damaged lines; the
  // next flush rewrites a clean file.
  NeedRewrite = Bad != 0;
  if (Bad) {
    if (Err)
      *Err = std::to_string(Bad) + " malformed record(s) in " + filePath();
  }
  if (trace::enabled())
    trace::Event("cache_load")
        .str("file", filePath())
        .num("records", Records)
        .num("bad", Bad);
  return Bad == 0;
}

bool QueryCache::flush(std::string *Err) {
  if (Cfg.Dir.empty())
    return true;
  std::lock_guard<std::mutex> Lock(DiskMu);
  // The first run against a new directory creates it.
  std::error_code EC;
  std::filesystem::create_directories(Cfg.Dir, EC);
  if (EC) {
    if (Err)
      *Err = "cannot create cache directory " + Cfg.Dir + ": " + EC.message();
    return false;
  }
  size_t Live = 0;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> SLock(S.Mu);
    Live += S.Queries.size() + S.Pairs.size();
  }
  bool Rewrite =
      NeedRewrite || FileRecords + PendingLines.size() > 2 * Live;
  std::string Path = filePath();
  if (Rewrite) {
    // Compaction: one record per live entry, deduplicated by construction.
    std::ofstream Out(Path, std::ios::trunc);
    if (!Out) {
      if (Err)
        *Err = "cannot write cache file " + Path;
      return false;
    }
    Out << "alive2re-qcache " << FormatVersion << "\n";
    size_t Written = 0;
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> SLock(S.Mu);
      for (const auto &[K, V] : S.Queries) {
        Out << renderQueryLine(K, V) << "\n";
        ++Written;
      }
      for (const auto &[K, V] : S.Pairs) {
        Out << renderPairLine(K, V) << "\n";
        ++Written;
      }
    }
    Out.flush();
    if (!Out) {
      if (Err)
        *Err = "short write to cache file " + Path;
      return false;
    }
    Appended.inc(PendingLines.size());
    FileRecords = Written;
    PendingLines.clear();
    NeedRewrite = false;
    if (trace::enabled())
      trace::Event("cache_flush")
          .str("file", Path)
          .num("records", Written)
          .flag("compacted", true);
    return true;
  }
  if (PendingLines.empty())
    return true;
  std::ofstream Out(Path, std::ios::app);
  if (!Out) {
    if (Err)
      *Err = "cannot append to cache file " + Path;
    return false;
  }
  for (const std::string &L : PendingLines)
    Out << L << "\n";
  Out.flush();
  if (!Out) {
    if (Err)
      *Err = "short write to cache file " + Path;
    return false;
  }
  Appended.inc(PendingLines.size());
  FileRecords += PendingLines.size();
  if (trace::enabled())
    trace::Event("cache_flush")
        .str("file", Path)
        .num("records", PendingLines.size())
        .flag("compacted", false);
  PendingLines.clear();
  return true;
}
