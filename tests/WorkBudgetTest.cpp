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
/// solve at every budget. The solves are bounded by work alone: no
/// wall-clock slice and a timeout no solve comes near, so the outcome is
/// the same on any host.
///
//===----------------------------------------------------------------------===//

#include "suite/Runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace morpheus;

namespace {

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
      Cfg.MaxSecondsPerSketch = 0;
      Cfg.MaxWorkPerSketch = Budget;
      TaskResult R = runTask(*Task, Cfg);
      ASSERT_FALSE(R.Stats.TimedOut) << Id << " at " << Budget;
      Actual << Id << ' ' << Budget << ' '
             << (R.Solved ? "solved " + R.ProgramSexp : "unsolved -")
             << '\n';
    }
  }
  EXPECT_EQ(Actual.str(), Expected.str());
}

} // namespace
