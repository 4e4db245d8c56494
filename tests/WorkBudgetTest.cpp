//===- tests/WorkBudgetTest.cpp - Budget-bound outcomes stay exact ---------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden parity of work-budgeted solves. tests/golden/work_budget.txt
/// holds, for ten suite tasks and three per-sketch work budgets, whether
/// the task solved and with which program. It was recorded before sketch
/// completion learned to skip repeated node tables, so reproducing it
/// byte for byte shows that skipped sub-searches are charged exactly the
/// work they consumed the first time: a budget cuts each sketch where it
/// always did.
///
/// The tasks are those with the most repeated node completions whose
/// three solves stay cheap. C3-01..04 run out of budget below 10,000
/// units and solve at it; C2-04 and C4-13 exhaust every budget; the rest
/// solve at every budget. The solves are bounded by work alone, under a
/// timeout no solve comes near, so the outcome is the same on any host.
///
/// With no binding deadline a sequential solve is a pure function of
/// (problem, config): solving each task again at the largest budget must
/// repeat every search counter exactly, not only the program.
///
//===----------------------------------------------------------------------===//

#include "suite/Runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace morpheus;

namespace {

/// The counters of one solve that depend on nothing but the search: no
/// timers, no template counters and no session builds. Those depend on
/// how warm the leased Z3 core already was: a solve reopens its example
/// scope after each base visit, and a core that earlier solves filled
/// with guarded spec instances needs fewer visits.
std::string searchCounters(const SynthesisStats &S) {
  std::ostringstream O;
  O << "hypotheses " << S.HypothesesExplored << " sketches "
    << S.SketchesGenerated << " refuted " << S.SketchesRefuted
    << " fills-tried " << S.PartialFillsTried << " fills-pruned "
    << S.PartialFillsPruned << " candidates " << S.CandidatesChecked
    << " reused " << S.ReusedCompletions << " deduce-calls "
    << S.Deduce.Calls << " solver-checks " << S.Deduce.SolverChecks
    << " cache-hits " << S.Deduce.CacheHits << " fastpath-rejections "
    << S.Deduce.FastPathRejections;
  return O.str();
}

TEST(WorkBudget, BudgetBoundOutcomesMatchGolden) {
  std::filesystem::path Golden =
      std::filesystem::path(__FILE__).parent_path() / "golden" /
      "work_budget.txt";
  std::ifstream In(Golden);
  ASSERT_TRUE(In) << "missing golden file " << Golden;
  std::ostringstream Expected;
  Expected << In.rdbuf();

  std::vector<BenchmarkTask> All = morpheusSuite();
  for (const BenchmarkTask &T : sqlSuite())
    All.push_back(T);
  std::ostringstream Actual;
  for (const char *Id : {"C3-01", "C3-02", "C3-03", "C3-04", "C3-31", "C5-05",
                         "C2-04", "C4-13", "SQL-24", "SQL-26"}) {
    const BenchmarkTask *Task = nullptr;
    for (const BenchmarkTask &T : All)
      if (T.Id == Id)
        Task = &T;
    ASSERT_NE(Task, nullptr) << Id;
    for (uint64_t Budget : {500, 2000, 10000}) {
      SynthesisConfig Cfg = configSpec2(std::chrono::minutes(10));
      Cfg.MaxComponents = 3;
      Cfg.MaxWorkPerSketch = Budget;
      TaskResult R = runTask(*Task, Cfg);
      ASSERT_FALSE(R.Stats.TimedOut) << Id << " at " << Budget;
      Actual << Id << ' ' << Budget << ' '
             << (R.Solved ? "solved " + R.ProgramSexp : "unsolved -")
             << '\n';
      if (Budget == 10000) {
        TaskResult Again = runTask(*Task, Cfg);
        EXPECT_EQ(Again.ProgramSexp, R.ProgramSexp) << Id;
        EXPECT_EQ(searchCounters(Again.Stats), searchCounters(R.Stats)) << Id;
      }
    }
  }
  EXPECT_EQ(Actual.str(), Expected.str());
}

} // namespace
