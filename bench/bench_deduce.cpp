//===- bench/bench_deduce.cpp - Deduction substrate microbenchmark ------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what each tier of the deduction substrate removes from the
// hot path, on a slice of the morpheus suite:
//
//  1. sequential baseline: Z3 invocations per task and how many deduce
//     calls the verdict cache / warm example scope / compiled templates
//     absorb;
//  2. the refutation store, cold then warm: a fresh store per task is
//     handed to the solve (as the SynthService hands in its per-example
//     scope), then every task is solved again with the same stores. The
//     sequential search is deterministic (modulo wall-clock timeout
//     boundaries), so both passes must reproduce the baseline's program
//     on every commonly solved task; the exit code is that parity check.
//
//   ./bench_deduce [limit] [timeout_ms]
//     limit      suite tasks to run               (default 24)
//     timeout_ms engine budget per solve          (default 5000)
//
//===----------------------------------------------------------------------===//

#include "io/ProgramIO.h"
#include "suite/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace morpheus;

namespace {

struct ArmResult {
  std::string Label;
  size_t Solved = 0;
  double WallSeconds = 0;
  DeduceStats Deduce; ///< summed across tasks
  std::vector<std::string> Programs; ///< per task; "" when unsolved
};

/// Solves every task of \p Suite under \p Opts; when \p Stores is given,
/// task I is handed (*Stores)[I] — the store scoped to its example.
ArmResult runArm(const std::string &Label,
                 const std::vector<BenchmarkTask> &Suite,
                 const EngineOptions &Opts,
                 const std::vector<std::shared_ptr<RefutationStore>> *Stores =
                     nullptr) {
  ArmResult Out;
  Out.Label = Label;
  for (size_t I = 0; I != Suite.size(); ++I) {
    Engine E(libraryForTask(Suite[I]), Opts);
    Solution S = E.solve(toProblem(Suite[I]), {}, std::nullopt,
                         Stores ? (*Stores)[I] : nullptr);
    Out.Solved += bool(S);
    Out.WallSeconds += S.Seconds;
    Out.Deduce += S.Stats.Deduce;
    Out.Programs.push_back(S ? printSexp(S.Program) : std::string());
  }
  return Out;
}

void printArm(const ArmResult &A) {
  const DeduceStats &D = A.Deduce;
  std::printf("  %-22s %3zu solved %8.2fs  checks %9llu  cache %9llu  "
              "session %8llu  store %8llu/%llu\n",
              A.Label.c_str(), A.Solved, A.WallSeconds,
              (unsigned long long)D.SolverChecks,
              (unsigned long long)D.CacheHits,
              (unsigned long long)D.SessionHits,
              (unsigned long long)D.StoreHits,
              (unsigned long long)D.StoreInserts);
}

/// Tasks solved by BOTH arms must synthesize the identical program; an
/// arm may solve strictly more only by outrunning the other's timeout.
bool paritize(const ArmResult &Base, const ArmResult &Arm) {
  bool Ok = true;
  for (size_t I = 0; I != Base.Programs.size(); ++I) {
    if (Base.Programs[I].empty() || Arm.Programs[I].empty())
      continue;
    if (Base.Programs[I] != Arm.Programs[I]) {
      std::printf("  PARITY VIOLATION task #%zu:\n    %s\n    %s\n", I,
                  Base.Programs[I].c_str(), Arm.Programs[I].c_str());
      Ok = false;
    }
  }
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  size_t Limit = argc > 1 ? size_t(std::atoi(argv[1])) : 24;
  int TimeoutMs = argc > 2 ? std::atoi(argv[2]) : 5000;

  std::vector<BenchmarkTask> Suite = morpheusSuite();
  if (Suite.size() > Limit)
    Suite.resize(Limit);

  std::printf("bench_deduce: %zu task(s), timeout %d ms\n\n", Suite.size(),
              TimeoutMs);

  EngineOptions Seq;
  Seq.timeout(std::chrono::milliseconds(TimeoutMs));

  // ------------------------------------------- 1. sequential substrate tiers
  ArmResult Base = runArm("sequential/no store", Suite, Seq);
  std::printf("sequential baseline (per-engine tiers only):\n");
  printArm(Base);
  {
    const DeduceStats &D = Base.Deduce;
    std::printf("    %.1f%% of %llu deduce calls never reached a Z3 "
                "check; %llu example-scope opens for %llu calls "
                "(%llu push/pop)\n\n",
                D.Calls ? 100.0 * double(D.Calls - D.SolverChecks) /
                              double(D.Calls)
                        : 0.0,
                (unsigned long long)D.Calls,
                (unsigned long long)D.SessionBuilds,
                (unsigned long long)D.Calls,
                (unsigned long long)D.SolverPushes);
  }

  // ------------------------- 2. refutation store, cold then warm, parity
  std::vector<std::shared_ptr<RefutationStore>> Stores;
  for (size_t I = 0; I != Suite.size(); ++I)
    Stores.push_back(std::make_shared<RefutationStore>());
  ArmResult Cold = runArm("sequential/store cold", Suite, Seq, &Stores);
  ArmResult Warm = runArm("sequential/store warm", Suite, Seq, &Stores);
  std::printf("refutation store (one per task, reused by the warm pass):\n");
  printArm(Cold);
  printArm(Warm);
  bool Ok = paritize(Base, Cold) && paritize(Base, Warm);
  double Drop = Base.Deduce.SolverChecks
                    ? 100.0 * (1.0 - double(Warm.Deduce.SolverChecks) /
                                         double(Base.Deduce.SolverChecks))
                    : 0.0;
  std::printf("  warm Z3 checks %llu vs %llu baseline (-%.1f%%); parity "
              "(identical programs on commonly solved tasks): %s\n",
              (unsigned long long)Warm.Deduce.SolverChecks,
              (unsigned long long)Base.Deduce.SolverChecks, Drop,
              Ok ? "OK" : "FAILED");
  return Ok ? 0 : 1;
}
