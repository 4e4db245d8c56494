//===- tests/PortfolioTest.cpp - Section 8 portfolio search -------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the parallel portfolio: external cancellation of a single
/// Synthesizer, first-solution-wins across size classes, cancellation
/// propagation from the winner to still-running members, and equivalence
/// of portfolio and sequential results on the smoke examples.
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"
#include "suite/Runner.h"
#include "synth/Portfolio.h"

#include <gtest/gtest.h>

using namespace morpheus;

namespace {

Table studentsTable() {
  return makeTable({{"id", CellType::Num},
                    {"name", CellType::Str},
                    {"age", CellType::Num},
                    {"GPA", CellType::Num}},
                   {{num(1), str("Alice"), num(8), num(4.0)},
                    {num(2), str("Bob"), num(18), num(3.2)},
                    {num(3), str("Tom"), num(12), num(3.0)}});
}

/// Example 12's expected output: rows with GPA < 4, GPA column dropped.
Table filterProjectOutput() {
  return makeTable({{"id", CellType::Num},
                    {"name", CellType::Str},
                    {"age", CellType::Num}},
                   {{num(2), str("Bob"), num(18)},
                    {num(3), str("Tom"), num(12)}});
}

Table flightsTable() {
  return makeTable({{"flight", CellType::Num},
                    {"origin", CellType::Str},
                    {"dest", CellType::Str}},
                   {{num(11), str("EWR"), str("SEA")},
                    {num(725), str("JFK"), str("BQN")},
                    {num(495), str("JFK"), str("SEA")},
                    {num(461), str("LGA"), str("ATL")},
                    {num(1696), str("EWR"), str("ORD")},
                    {num(1670), str("EWR"), str("SEA")}});
}

Table flightsOutput() {
  return makeTable({{"origin", CellType::Str},
                    {"n", CellType::Num},
                    {"prop", CellType::Num}},
                   {{str("EWR"), num(2), num(2.0 / 3.0)},
                    {str("JFK"), num(1), num(1.0 / 3.0)}});
}

TEST(Portfolio, SizeClassVariantsPartitionTheSearch) {
  SynthesisConfig Base;
  Base.MaxComponents = 5;
  auto Variants = PortfolioSynthesizer::sizeClassVariants(Base);
  ASSERT_EQ(Variants.size(), 5u);
  EXPECT_EQ(Variants[0].MinComponents, 0u); // class 1 also owns size 0
  EXPECT_EQ(Variants[0].MaxComponents, 1u);
  for (size_t K = 1; K != Variants.size(); ++K) {
    EXPECT_EQ(Variants[K].MinComponents, unsigned(K + 1));
    EXPECT_EQ(Variants[K].MaxComponents, unsigned(K + 1));
  }
}

TEST(Portfolio, SynthesizerHonorsExternalCancellation) {
  CancellationToken Cancel = CancellationToken::create();
  Cancel.requestStop(); // cancelled before the search starts
  SynthesisConfig Cfg;
  Cfg.Timeout = std::chrono::milliseconds(30000);
  Cfg.Cancel = Cancel;
  Synthesizer S(StandardComponents::get().tidyDplyr(), Cfg);
  // The flights example takes the sequential engine well over a second;
  // with the flag set it must abort almost immediately.
  SynthesisResult R = S.synthesize({flightsTable()}, flightsOutput());
  EXPECT_FALSE(R);
  EXPECT_TRUE(R.Stats.TimedOut);
  EXPECT_LT(R.Stats.ElapsedSeconds, 5.0);
}

TEST(Portfolio, FirstSolutionWins) {
  SynthesisConfig Base;
  Base.Timeout = std::chrono::milliseconds(30000);
  PortfolioSynthesizer P(StandardComponents::get().tidyDplyr(),
                         PortfolioSynthesizer::sizeClassVariants(Base));
  PortfolioResult R = P.synthesize({studentsTable()}, filterProjectOutput());
  ASSERT_TRUE(R);
  ASSERT_GE(R.WinnerIndex, 0);
  ASSERT_LT(size_t(R.WinnerIndex), R.Workers.size());
  EXPECT_TRUE(R.Workers[size_t(R.WinnerIndex)].Solved);
  std::optional<Table> Out = R.Program->evaluate({studentsTable()});
  ASSERT_TRUE(Out);
  EXPECT_TRUE(Out->equalsUnordered(filterProjectOutput()));
}

TEST(Portfolio, WinnerCancelsLosingMembers) {
  // One member solves the task at size 2 in well under a second; the other
  // is pinned to size-5 programs with a 60 s budget and can only stop
  // early because the winner's cancellation reaches it.
  SynthesisConfig Fast;
  Fast.Timeout = std::chrono::milliseconds(60000);
  Fast.MaxComponents = 2;

  SynthesisConfig Slow = Fast;
  Slow.MinComponents = 5;
  Slow.MaxComponents = 5;

  // Two pool threads so both members run concurrently even on one core.
  PortfolioSynthesizer P(StandardComponents::get().tidyDplyr(), {Slow, Fast},
                         /*MaxThreads=*/2);
  PortfolioResult R = P.synthesize({studentsTable()}, filterProjectOutput());
  ASSERT_TRUE(R);
  EXPECT_EQ(R.WinnerIndex, 1);
  // Far below the 60 s member budget: the slow member was cancelled.
  EXPECT_LT(R.ElapsedSeconds, 20.0);
  EXPECT_FALSE(R.Workers[0].Solved);
}

TEST(Portfolio, MatchesSequentialOnSmokeExamples) {
  struct Case {
    std::vector<Table> Inputs;
    Table Output;
  };
  std::vector<Case> Cases;
  Cases.push_back({{studentsTable()},
                   makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                             {{str("Alice"), num(8)},
                              {str("Bob"), num(18)},
                              {str("Tom"), num(12)}})});
  Cases.push_back({{studentsTable()}, filterProjectOutput()});

  for (const Case &C : Cases) {
    SynthesisConfig Cfg;
    Cfg.Timeout = std::chrono::milliseconds(30000);

    Synthesizer Seq(StandardComponents::get().tidyDplyr(), Cfg);
    SynthesisResult SR = Seq.synthesize(C.Inputs, C.Output);
    ASSERT_TRUE(SR);

    PortfolioSynthesizer Par(StandardComponents::get().tidyDplyr(),
                             PortfolioSynthesizer::sizeClassVariants(Cfg));
    PortfolioResult PR = Par.synthesize(C.Inputs, C.Output);
    ASSERT_TRUE(PR);

    // Both engines must satisfy the example; programs may differ only in
    // representation, so equivalence is checked on the example itself.
    std::optional<Table> SeqOut = SR.Program->evaluate(C.Inputs);
    std::optional<Table> ParOut = PR.Program->evaluate(C.Inputs);
    ASSERT_TRUE(SeqOut);
    ASSERT_TRUE(ParOut);
    EXPECT_TRUE(SeqOut->equalsUnordered(C.Output));
    EXPECT_TRUE(ParOut->equalsUnordered(C.Output));
    EXPECT_TRUE(SeqOut->equalsUnordered(*ParOut));
  }
}

/// Deduction engines lease warm Z3 cores from one process-wide pool. The
/// sequential solves below warm cores on this thread; two back-to-back
/// 4-thread portfolios then lease them on pool threads, each over a
/// different example. A core carries nothing from one lease to the next,
/// so every winner's program is byte-identical to a sequential solve of
/// the winning member's configuration.
TEST(Portfolio, LeasedCoresSolveLikeSequential) {
  struct Case {
    std::vector<Table> Inputs;
    Table Output;
  };
  std::vector<Case> Cases;
  Cases.push_back({{studentsTable()}, filterProjectOutput()});
  Cases.push_back({{studentsTable()},
                   makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                             {{str("Alice"), num(8)},
                              {str("Bob"), num(18)},
                              {str("Tom"), num(12)}})});
  const ComponentLibrary &Lib = StandardComponents::get().tidyDplyr();
  SynthesisConfig Base;
  Base.Timeout = std::chrono::milliseconds(30000);
  Base.MaxComponents = 3;
  std::vector<SynthesisConfig> Variants =
      PortfolioSynthesizer::sizeClassVariants(Base);

  for (const Case &C : Cases)
    ASSERT_TRUE(Synthesizer(Lib, Base).synthesize(C.Inputs, C.Output));

  for (const Case &C : Cases) {
    PortfolioSynthesizer Par(Lib, Variants, /*MaxThreads=*/4);
    PortfolioResult PR = Par.synthesize(C.Inputs, C.Output);
    ASSERT_TRUE(PR);
    SynthesisResult SR = Synthesizer(Lib, Variants[size_t(PR.WinnerIndex)])
                             .synthesize(C.Inputs, C.Output);
    ASSERT_TRUE(SR);
    EXPECT_EQ(PR.Program->toString(), SR.Program->toString());
  }
}

TEST(Portfolio, RunnerWiringSolvesSuiteTask) {
  const std::vector<BenchmarkTask> &Suite = morpheusSuite();
  ASSERT_FALSE(Suite.empty());
  TaskResult R = runTaskPortfolio(Suite.front(),
                                  configSpec2(std::chrono::milliseconds(10000)));
  EXPECT_TRUE(R.Solved);
  EXPECT_EQ(R.TaskId, Suite.front().Id);
  EXPECT_GT(R.Seconds, 0.0);
}

TEST(Portfolio, UnsolvableTaskReturnsNull) {
  Table In = makeTable({{"a", CellType::Num}}, {{num(1)}, {num(2)}});
  // No component invents the string "nope"; every member must exhaust or
  // time out.
  Table Out = makeTable({{"ghost", CellType::Str}}, {{str("nope")}});
  SynthesisConfig Base;
  Base.Timeout = std::chrono::milliseconds(200);
  Base.MaxComponents = 2;
  PortfolioSynthesizer P(StandardComponents::get().tidyDplyr(),
                         PortfolioSynthesizer::sizeClassVariants(Base));
  PortfolioResult R = P.synthesize({In}, Out);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.WinnerIndex, -1);
  for (const PortfolioWorkerResult &W : R.Workers)
    EXPECT_FALSE(W.Solved);
}

} // namespace
