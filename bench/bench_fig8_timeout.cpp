//===- bench/bench_fig8_timeout.cpp - Figure 8 reproduction --------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Figure 8: the SMT-solver timeout sweep. Verdict counts plateau once the
/// budget crosses a knee while total runtime keeps growing roughly
/// linearly with the budget (timeouts burn the whole allowance).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace alive;
using namespace alive::bench;

int main() {
  std::vector<corpus::TestPair> Suite = corpus::unitTestSuite();
  auto Gen = corpus::generatedSuite(12, 0xf18);
  Suite.insert(Suite.end(), Gen.begin(), Gen.end());

  std::printf("# Figure 8: effect of the solver timeout (corpus: %zu "
              "pairs, unroll 8)\n",
              Suite.size());
  std::printf("%-12s %-10s %-12s %-10s %-10s %-10s %-8s\n", "timeout(s)",
              "correct", "incorrect", "other", "queries", "conflicts",
              "time(s)");
  for (double Sec : {0.05, 0.2, 0.5, 1.0, 3.0, 10.0}) {
    refine::Options Opts;
    Opts.UnrollFactor = 8;
    Opts.Budget.TimeoutSec = Sec;
    // Per-sweep numbers come from the verdicts: the summary counts queries
    // and wall seconds, each query's record its conflicts. The registry is
    // reset so the JSON snapshot below covers the final sweep only.
    refine::BatchSummary T;
    uint64_t Conflicts = 0;
    stats::Registry::get().reset();
    for (const auto &P : Suite) {
      refine::Verdict V = runPair(P, Opts);
      T.countVerdict(V);
      for (const refine::QueryStats &Q : V.Queries)
        Conflicts += Q.Conflicts;
    }
    std::printf("%-12.2f %-10u %-12u %-10u %-10u %-10llu %-8.1f\n", Sec,
                T.Correct, T.Incorrect, T.Pairs - T.Correct - T.Incorrect,
                T.QueriesRun, (unsigned long long)Conflicts, T.Seconds);
  }
  const char *Out = "BENCH_observability.json";
  if (writeStatsJson(Out, stats::Registry::get().snapshot(),
                     "fig8 timeout sweep, final (10s) budget, unroll 8"))
    std::printf("\nwrote %s (registry snapshot of the final sweep)\n", Out);
  std::printf("\n(paper shape: definitive verdicts plateau past a knee; "
              "runtime keeps rising with the budget)\n");
  return 0;
}
