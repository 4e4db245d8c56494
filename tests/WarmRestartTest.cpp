//===- tests/WarmRestartTest.cpp - Golden parity across a warm restart --------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable-warm-state acceptance bar, end to end: run all 108
/// benchmark tasks (80 morpheus + 28 SQL) through services with a state
/// dir, shut down (final checkpoint), boot fresh services over the same
/// dir, and demand
///
///  1. the warm pass answers every task from the restored ResultCache —
///     identical solved set AND byte-identical programs, zero engine runs;
///  2. a third pass whose problems fingerprint differently (a changed
///     timeout) must actually re-solve — and the restored RefutationStore
///     scopes then short-circuit Z3: StoreHits > 0 and strictly fewer
///     solver checks than the cold pass on the comfortably solved tasks,
///     while every comfortably solved task (at least 90 of the 108)
///     yields the byte-identical program. A warm store changes how fast
///     a verdict is reached, never which verdict; the sequential search
///     is deterministic, so the program must not move.
///
/// The two component libraries (tidy/dplyr and SQL-relevant) get separate
/// state subdirectories: the compat key is per-library by design.
///
//===----------------------------------------------------------------------===//

#include "io/ProgramIO.h"
#include "service/SynthService.h"
#include "suite/Runner.h"
#include "TestBudget.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <map>

using namespace morpheus;

namespace {

const int TimeoutMs = int(test_budget::scaledBudget(1500).count());
/// "Comfortable": solved using at most half the budget — far enough from
/// the wall-clock boundary that a rerun cannot plausibly time out.
const double ComfortableSeconds = 0.5 * TimeoutMs / 1000.0;

struct Row {
  bool Solved = false;
  double Seconds = 0;
  std::string Sexp;
  ResultSource Source = ResultSource::Solve;
  DeduceStats Deduce;
};

struct PassStats {
  uint64_t CacheHits = 0;
  uint64_t ResultsLoaded = 0;
  uint64_t RefutationKeysLoaded = 0;
  uint64_t FilesRejected = 0;
};

/// One service lifetime per suite/library over \p StateRoot; rows keyed
/// by task id. The service is destroyed before returning, so the final
/// checkpoint is on disk when this function exits.
std::map<std::string, Row> runPass(const std::string &StateRoot, int BudgetMs,
                                   PassStats *Agg = nullptr) {
  std::map<std::string, Row> Rows;
  struct Arm {
    const char *SubDir;
    std::vector<BenchmarkTask> Tasks;
    bool Sql;
  };
  std::vector<Arm> Arms = {{"tidy", morpheusSuite(), false},
                           {"sql", sqlSuite(), true}};
  for (Arm &A : Arms) {
    std::string Dir = StateRoot + "/" + A.SubDir;
    ::mkdir(Dir.c_str(), 0777);
    SynthesisConfig Cfg = configSpec2(std::chrono::milliseconds(BudgetMs));
    EngineOptions Opts;
    Opts.config(Cfg).stateDir(Dir);
    Engine E = A.Sql ? Engine::sql(Opts) : Engine::standard(Opts);
    SynthService Svc(E, ServiceOptions().workers(1).cacheCapacity(
                            A.Tasks.size() * 2));
    for (const BenchmarkTask &T : A.Tasks) {
      JobHandle H = Svc.submit(toProblem(T));
      const Solution &S = H.get();
      Row R;
      R.Solved = bool(S);
      R.Seconds = S.Seconds;
      if (S.Program)
        R.Sexp = printSexp(S.Program);
      R.Source = H.source();
      R.Deduce = S.Stats.Deduce;
      Rows.emplace(T.Id, std::move(R));
    }
    if (Agg) {
      ServiceStats S = Svc.stats();
      Agg->CacheHits += S.Cache.Hits;
      Agg->ResultsLoaded += S.Warm.ResultsLoaded;
      Agg->RefutationKeysLoaded += S.Warm.RefutationKeysLoaded;
      Agg->FilesRejected += S.Warm.FilesRejected;
    }
  }
  return Rows;
}

TEST(WarmRestart, GoldenParityAcrossAllTasks) {
  std::string Root = "warm_restart_test.state";
  ::mkdir(Root.c_str(), 0777);
  for (const char *Sub : {"/tidy", "/sql"})
    for (const char *F : {"/results.mstate", "/refutations.mstate"})
      std::remove((Root + Sub + F).c_str());

  // ---- pass 1: cold. Every answer comes from a real engine run.
  PassStats Cold;
  std::map<std::string, Row> ColdRows = runPass(Root, TimeoutMs, &Cold);
  ASSERT_EQ(ColdRows.size(), 108u);
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.ResultsLoaded, 0u);
  EXPECT_EQ(Cold.FilesRejected, 0u);
  size_t ColdSolved = 0;
  for (const auto &Entry : ColdRows)
    ColdSolved += Entry.second.Solved;
  ASSERT_GT(ColdSolved, 0u);

  // ---- pass 2: warm restart, identical problems. All 108 answers must
  // come from the restored cache — the solved set and every program are
  // reproduced exactly, with zero engine runs.
  PassStats Warm;
  std::map<std::string, Row> WarmRows = runPass(Root, TimeoutMs, &Warm);
  ASSERT_EQ(WarmRows.size(), 108u);
  EXPECT_EQ(Warm.ResultsLoaded, 108u);
  EXPECT_EQ(Warm.CacheHits, 108u);
  EXPECT_GT(Warm.RefutationKeysLoaded, 0u);
  EXPECT_EQ(Warm.FilesRejected, 0u);
  for (const auto &Entry : ColdRows) {
    const Row &C = Entry.second;
    auto It = WarmRows.find(Entry.first);
    ASSERT_NE(It, WarmRows.end()) << Entry.first;
    const Row &W = It->second;
    EXPECT_EQ(W.Solved, C.Solved) << Entry.first;
    EXPECT_EQ(W.Sexp, C.Sexp) << Entry.first;
    EXPECT_EQ(W.Source, ResultSource::CacheHit) << Entry.first;
  }

  // ---- pass 3: warm restart, different budget. The fingerprint keys the
  // timeout, so these are cache misses that genuinely re-run the engine —
  // seeded with every refutation the cold pass derived. The search must
  // visibly lean on the store, and the warm re-solves of the tasks the
  // cold pass solved comfortably must find the same programs with
  // strictly fewer Z3 checks in total than the cold pass spent on them.
  PassStats Reheat;
  std::map<std::string, Row> ReheatRows =
      runPass(Root, TimeoutMs + TimeoutMs / 2, &Reheat);
  EXPECT_EQ(Reheat.CacheHits, 0u);
  EXPECT_GT(Reheat.RefutationKeysLoaded, 0u);
  uint64_t StoreHits = 0, ColdChecks = 0, ReheatChecks = 0;
  size_t Compared = 0;
  for (const auto &Entry : ColdRows) {
    const Row &C = Entry.second;
    const Row &R = ReheatRows.at(Entry.first);
    StoreHits += R.Deduce.StoreHits;
    if (!C.Solved || C.Seconds > ComfortableSeconds)
      continue;
    // A comfortably solved task stays solved with a larger budget, and
    // the stored refutations must not move its program.
    EXPECT_TRUE(R.Solved) << Entry.first;
    EXPECT_EQ(R.Sexp, C.Sexp) << Entry.first << " program diverged";
    ColdChecks += C.Deduce.SolverChecks;
    ReheatChecks += R.Deduce.SolverChecks;
    ++Compared;
  }
  // The suite must be substantially solved well inside the budget, or
  // the parity assertions above would be vacuous.
  EXPECT_GE(Compared, 90u);
  EXPECT_GT(StoreHits, 0u);
  EXPECT_LT(ReheatChecks, ColdChecks)
      << "warm refutations should prune Z3 checks on " << Compared
      << " comfortable tasks";
}

} // namespace
