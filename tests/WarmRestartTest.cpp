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
/// dir, and demand that the warm pass answers every task from the
/// restored ResultCache — identical solved set AND byte-identical
/// programs, zero engine runs. (A restart whose problems fingerprint
/// differently, re-solving to the same programs, is a ServiceTest case.)
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

struct Row {
  bool Solved = false;
  std::string Sexp;
  ResultSource Source = ResultSource::Solve;
};

struct PassStats {
  uint64_t CacheHits = 0;
  uint64_t ResultsLoaded = 0;
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
      if (S.Program)
        R.Sexp = printSexp(S.Program);
      R.Source = H.source();
      Rows.emplace(T.Id, std::move(R));
    }
    if (Agg) {
      ServiceStats S = Svc.stats();
      Agg->CacheHits += S.Cache.Hits;
      Agg->ResultsLoaded += S.Warm.ResultsLoaded;
      Agg->FilesRejected += S.Warm.FilesRejected;
    }
  }
  return Rows;
}

TEST(WarmRestart, GoldenParityAcrossAllTasks) {
  std::string Root = "warm_restart_test.state";
  ::mkdir(Root.c_str(), 0777);
  for (const char *Sub : {"/tidy", "/sql"})
    std::remove((Root + Sub + "/results.mstate").c_str());

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
}

} // namespace
