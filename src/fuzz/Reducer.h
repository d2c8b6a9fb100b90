//===- fuzz/Reducer.h - Delta-debugging repro shrinker ----------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Greedy delta debugging over a failing source module: candidate edits
/// (drop an instruction and rewire its uses, fold a conditional branch and
/// prune the unreachable side, simplify constants toward 0/1, sweep dead
/// code) are accepted only while the candidate still parses, verifies, is
/// no larger than the current best, and still fails the same oracle. The
/// result is a minimized (src, tgt) pair ready to write as a two-file .ll
/// repro. reduceText() is the sibling for parser-fuzzing failures: ddmin
/// -style chunk deletion over raw bytes under an arbitrary predicate.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_FUZZ_REDUCER_H
#define ALIVE2RE_FUZZ_REDUCER_H

#include "fuzz/Oracle.h"

#include <functional>
#include <string>

namespace alive::fuzz {

struct ReduceResult {
  std::string Oracle; ///< the oracle the repro keeps failing
  std::string SrcIR;  ///< minimized source
  std::string TgtIR;  ///< pipeline output of the minimized source
  std::string Detail; ///< failure detail on the minimized pair
  unsigned CandidatesTried = 0;
  unsigned Accepted = 0;
  size_t InitialInstrs = 0;
  size_t FinalInstrs = 0;
};

class Reducer {
public:
  struct Limits {
    /// Upper bound on oracle re-evaluations (each one re-runs the pipeline
    /// and at least one refinement check).
    unsigned MaxCandidates = 192;
  };

  explicit Reducer(Oracle &O) : O(O) {}
  Reducer(Oracle &O, Limits Lim) : O(O), L(Lim) {}

  /// Shrinks \p SrcIR while Oracle::fails(\p OracleName) holds. \p SrcIR
  /// must already fail the oracle; otherwise the input comes back
  /// unchanged with Accepted == 0.
  ReduceResult reduce(const std::string &OracleName, const std::string &SrcIR);

  /// ddmin-style shrink of arbitrary text: repeatedly deletes chunks
  /// (halving the chunk size down to one byte) while \p StillFails holds.
  /// Deterministic; bounded by \p MaxProbes predicate calls.
  static std::string
  reduceText(const std::string &Text,
             const std::function<bool(const std::string &)> &StillFails,
             unsigned MaxProbes = 512);

private:
  /// reduce() without its fuzz_reduce span.
  ReduceResult shrink(const std::string &OracleName, const std::string &SrcIR);

  Oracle &O;
  Limits L;
};

} // namespace alive::fuzz

#endif // ALIVE2RE_FUZZ_REDUCER_H
