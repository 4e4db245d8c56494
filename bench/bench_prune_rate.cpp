//===- bench/bench_prune_rate.cpp - Section 9 prune-rate claim ----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the Section 9 statistic: "when using partial evaluation,
/// MORPHEUS can prune 72% of the partial programs without having to fill
/// all holes in the sketch". Runs Spec 2 + partial evaluation over the 80
/// benchmarks and reports the fraction of partially filled sketches
/// rejected by deduction before completion, plus the share of the runtime
/// spent in deduction as a whole and in Z3 alone (paper: ~15% SMT).
///
/// Usage: bench_prune_rate [timeout_ms]
///
//===----------------------------------------------------------------------===//

#include "suite/Runner.h"

#include <cstdio>
#include <cstdlib>

using namespace morpheus;

int main(int argc, char **argv) {
  int TimeoutMs = argc > 1 ? std::atoi(argv[1]) : 3000;
  std::vector<TaskResult> Results = runSuite(
      morpheusSuite(), configSpec2(std::chrono::milliseconds(TimeoutMs)));

  uint64_t Tried = 0, Pruned = 0;
  double Elapsed = 0, Deduce = 0, Smt = 0;
  for (const TaskResult &R : Results) {
    Tried += R.Stats.PartialFillsTried;
    Pruned += R.Stats.PartialFillsPruned;
    Elapsed += R.Stats.ElapsedSeconds;
    Deduce += R.Stats.Deduce.SolverSeconds;
    // Z3 alone: example-scope and base work plus check(). The rest of
    // deduce() is partial evaluation and the verdict cache.
    Smt += R.Stats.Deduce.SessionSeconds + R.Stats.Deduce.CheckSeconds;
  }
  std::printf("partial fills tried:   %llu\n", (unsigned long long)Tried);
  std::printf("pruned before filling all holes: %llu (%.1f%%)\n",
              (unsigned long long)Pruned,
              Tried ? 100.0 * double(Pruned) / double(Tried) : 0.0);
  std::printf("deduction share of runtime: %.1f%% (%.1fs of %.1fs)\n",
              Elapsed ? 100.0 * Deduce / Elapsed : 0.0, Deduce, Elapsed);
  std::printf("SMT share of runtime (session + check, the paper's "
              "measure): %.1f%% (%.1fs)\n",
              Elapsed ? 100.0 * Smt / Elapsed : 0.0, Smt);
  std::printf("\nPaper: 72%% of partial programs pruned without filling "
              "all holes; ~15%% of time in SMT (68%% was the R "
              "interpreter, which this reproduction replaces with native "
              "evaluation).\n");
  return 0;
}
