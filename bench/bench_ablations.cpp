//===- bench/bench_ablations.cpp - Design-choice ablations ---------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worklist-ordering ablation called out in DESIGN.md §3 (E8): the
/// 2-gram cost model (Section 8) vs plain size ordering, run on a
/// stratified sample of the suite (every 4th task) to stay fast.
///
/// Usage: bench_ablations [timeout_ms]
///
//===----------------------------------------------------------------------===//

#include "suite/Runner.h"

#include <cstdio>
#include <cstdlib>

using namespace morpheus;

namespace {

void report(const char *Name, const std::vector<TaskResult> &Results) {
  std::printf("  %-28s solved=%zu/%zu median=%.2fs\n", Name,
              solvedCount(Results), Results.size(),
              medianSolvedTime(Results));
}

} // namespace

int main(int argc, char **argv) {
  int TimeoutMs = argc > 1 ? std::atoi(argv[1]) : 3000;
  std::chrono::milliseconds Timeout(TimeoutMs);

  std::vector<BenchmarkTask> Sample;
  const auto &Suite = morpheusSuite();
  for (size_t I = 0; I < Suite.size(); I += 4)
    Sample.push_back(Suite[I]);

  std::printf("Worklist ordering on a %zu-task stratified sample "
              "(timeout %d ms):\n",
              Sample.size(), TimeoutMs);
  SynthesisConfig Cfg = configSpec2(Timeout);
  report("2-gram + size (paper)", runSuite(Sample, Cfg));
  Cfg.UseNGram = false;
  report("size only", runSuite(Sample, Cfg));
  return 0;
}
