//===- support/QueryCache.h - Two-level verification cache ------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-level result cache behind re-validation runs (the "caching /
/// hot-path" ROADMAP direction): the same staged SMT queries and the same
/// function pairs recur across passes, across pairs and across whole runs
/// of the corpus, and their results are pure functions of canonical
/// fingerprints (support/Fingerprint.h).
///
///  * Query level - staged-query fingerprint -> sat/unsat classification
///    (plus the rendered counterexample on the sat side), consulted by the
///    refinement layer before dispatching a solver search.
///  * Pair level - pair fingerprint (IR text + semantics-affecting
///    options) -> final verdict, letting a warm `alive-tv --cache-dir` run
///    skip unchanged pairs entirely.
///
/// The in-memory store is sharded and mutex-striped so Validator workers
/// hit disjoint locks on the hot path; per-shard capacity is bounded with
/// coarse eviction. An optional on-disk store (one versioned file,
/// append-on-flush with automatic compaction) persists both levels across
/// processes. Timeout/OOM outcomes are never inserted: they depend on wall
/// clock and machine load, not on the fingerprinted structure.
///
/// Hits, misses, evictions and disk traffic are counted in the stats
/// registry under "cache.*".
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_QUERYCACHE_H
#define ALIVE2RE_SUPPORT_QUERYCACHE_H

#include "support/Fingerprint.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace alive::support {

/// Classification of one cached staged-query outcome. Only decided results
/// are cached; "unknown" never enters the cache.
enum class CachedQueryResult : uint8_t {
  Unsat = 0,     ///< no counterexample: the staged check passed
  Sat = 1,       ///< counterexample found (Detail carries the rendering)
  SatApprox = 2, ///< counterexample tainted by an over-approximated feature
};

struct CachedQuery {
  CachedQueryResult Result = CachedQueryResult::Unsat;
  /// Rendered counterexample (Sat) or approximation diagnostic (SatApprox).
  std::string Detail;
};

/// One cached pair verdict. Kind is refine::VerdictKind's numeric value;
/// support stays below the refine layer, so the enum is not named here.
struct CachedVerdict {
  uint8_t Kind = 0;
  unsigned QueriesRun = 0;
  std::string FailedCheck;
  std::string Detail;
};

class QueryCache {
public:
  struct Config {
    /// Directory of the on-disk store; empty = in-memory only. The file is
    /// Dir + "/" + FileName; flush() creates a missing directory.
    std::string Dir;
    /// Per-shard entry bound per level; coarse eviction above it.
    size_t MaxEntriesPerShard = size_t(1) << 14;
  };

  /// Bump when the record format or the meaning of fingerprints changes
  /// (e.g. an encoder change invalidates persisted results): loads of older
  /// files are rejected and the file is rewritten on the next flush.
  static constexpr unsigned FormatVersion = 1;
  static constexpr const char *FileName = "alive2re.cache";

  QueryCache() : QueryCache(Config{}) {}
  explicit QueryCache(Config C);

  /// Flushes the on-disk store (when configured); errors are swallowed —
  /// call flush() explicitly to observe them.
  ~QueryCache();

  QueryCache(const QueryCache &) = delete;
  QueryCache &operator=(const QueryCache &) = delete;

  // --- Query level --------------------------------------------------------

  bool findQuery(const Fingerprint &K, CachedQuery &Out);
  void putQuery(const Fingerprint &K, CachedQuery V);

  // --- Pair level ---------------------------------------------------------

  bool findPair(const Fingerprint &K, CachedVerdict &Out);
  void putPair(const Fingerprint &K, CachedVerdict V);

  /// Live entries across both levels and all shards.
  size_t size() const;

  // --- On-disk store ------------------------------------------------------

  /// Loads the store file into memory. Missing file = clean empty store
  /// (returns true). A version/format mismatch rejects the whole file
  /// (returns false, store left empty) and schedules a rewrite on flush.
  bool load(std::string *Err = nullptr);

  /// Persists entries added since load(): appends when the file is clean,
  /// rewrites compacted when the file was rejected, is missing, or holds
  /// over twice as many records as there are live entries. No-op without a
  /// configured Dir.
  bool flush(std::string *Err = nullptr);

  std::string filePath() const;

private:
  static constexpr size_t NumShards = 16;

  struct Shard {
    std::mutex Mu;
    std::unordered_map<Fingerprint, CachedQuery, FingerprintHash> Queries;
    std::unordered_map<Fingerprint, CachedVerdict, FingerprintHash> Pairs;
  };

  Config Cfg;
  Shard Shards[NumShards];

  std::mutex DiskMu; ///< guards PendingLines, FileRecords, NeedRewrite
  /// Records rendered by put*() since the last flush, pending append.
  std::vector<std::string> PendingLines;
  /// Records present in the file at load time (duplicates included).
  size_t FileRecords = 0;
  /// Starts true so a flush without a prior clean load() writes a full,
  /// headered file; a clean load() downgrades to append mode.
  bool NeedRewrite = true;

  Shard &shard(const Fingerprint &K) {
    return Shards[K.Lo % NumShards];
  }
  template <typename Map, typename Value>
  void putIn(Map &M, std::mutex &Mu, const Fingerprint &K, Value V);
  void appendPending(std::string Line);
};

} // namespace alive::support

#endif // ALIVE2RE_SUPPORT_QUERYCACHE_H
