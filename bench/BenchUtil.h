//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Helpers shared by the per-figure benchmark binaries: running a TestPair
/// through the validator and tallying verdicts into the paper's buckets.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_BENCH_BENCHUTIL_H
#define ALIVE2RE_BENCH_BENCHUTIL_H

#include "corpus/Corpus.h"
#include "ir/Parser.h"
#include "refine/Validator.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdio>

namespace alive::bench {

inline refine::Verdict runPair(const corpus::TestPair &P,
                               const refine::Options &Opts) {
  smt::resetContext();
  auto SrcM = ir::parseModuleOrDie(P.SrcIR);
  auto TgtM = ir::parseModuleOrDie(P.TgtIR);
  const ir::Function *SF = SrcM->function(SrcM->numFunctions() - 1);
  const ir::Function *TF = TgtM->functionByName(SF->name());
  // Benchmarks measure solver effort; the result cache is its own
  // benchmark (bench_cache) and stays out of everyone else's numbers.
  refine::Options O = Opts;
  O.Cache = refine::CachePolicy::disabled();
  return refine::Validator(O).verifyPair(*SF, *TF, SrcM.get());
}

/// Writes a registry snapshot as a JSON document (counters as integers,
/// distributions as {count,sum,min,max} objects). \returns false when the
/// file cannot be opened.
inline bool writeStatsJson(const char *Path, const stats::Snapshot &S,
                           const std::string &Note = "") {
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;
  std::fprintf(F, "{\n  \"note\": \"%s\",\n  \"counters\": {",
               trace::jsonEscape(Note).c_str());
  bool First = true;
  for (const auto &[Name, V] : S.Counters) {
    std::fprintf(F, "%s\n    \"%s\": %llu", First ? "" : ",",
                 trace::jsonEscape(Name).c_str(), (unsigned long long)V);
    First = false;
  }
  std::fprintf(F, "\n  },\n  \"distributions\": {");
  First = true;
  for (const auto &[Name, D] : S.Dists) {
    std::fprintf(F,
                 "%s\n    \"%s\": {\"count\": %llu, \"sum\": %.9g, "
                 "\"min\": %.9g, \"max\": %.9g}",
                 First ? "" : ",", trace::jsonEscape(Name).c_str(),
                 (unsigned long long)D.Count, D.Sum, D.Min, D.Max);
    First = false;
  }
  std::fprintf(F, "\n  }\n}\n");
  std::fclose(F);
  return true;
}

} // namespace alive::bench

#endif // ALIVE2RE_BENCH_BENCHUTIL_H
