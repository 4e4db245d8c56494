//===- tests/ApiTest.cpp - Public Engine facade -------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the public API: EngineOptions' fluent builder, both solve
/// strategies through the facade, every Outcome value (solved, timeout,
/// cancelled, exhausted), CancellationToken semantics including linking,
/// and the suite -> Problem bridge.
///
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "interp/Components.h"
#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "suite/Runner.h"

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

Table nameAgeOutput() {
  return makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                   {{str("Bob"), num(18)}, {str("Tom"), num(12)}});
}

TEST(CancellationToken, InertTokenNeverStops) {
  CancellationToken T;
  EXPECT_FALSE(T.cancellable());
  EXPECT_FALSE(T.stopRequested());
  T.requestStop(); // no-op, must not crash
  EXPECT_FALSE(T.stopRequested());
}

TEST(CancellationToken, CopiesShareTheFlag) {
  CancellationToken A = CancellationToken::create();
  CancellationToken B = A;
  EXPECT_FALSE(B.stopRequested());
  A.requestStop();
  EXPECT_TRUE(B.stopRequested());
}

TEST(CancellationToken, LinkedChildObservesParentButNotViceVersa) {
  CancellationToken Parent = CancellationToken::create();
  CancellationToken Child = Parent.makeLinked();

  Child.requestStop();
  EXPECT_TRUE(Child.stopRequested());
  EXPECT_FALSE(Parent.stopRequested()); // winner's stop stays internal

  CancellationToken Child2 = Parent.makeLinked();
  EXPECT_FALSE(Child2.stopRequested());
  Parent.requestStop();
  EXPECT_TRUE(Child2.stopRequested()); // caller's stop reaches members
}

TEST(EngineOptions, FluentBuilderSetsEveryKnob) {
  EngineOptions Opts = EngineOptions()
                           .strategy(Strategy::Portfolio)
                           .threads(3)
                           .timeout(std::chrono::milliseconds(1234))
                           .specLevel(SpecLevel::Spec1)
                           .deduction(false)
                           .partialEval(false)
                           .ngramOrdering(false)
                           .maxComponents(2);
  EXPECT_EQ(Opts.strategy(), Strategy::Portfolio);
  EXPECT_EQ(Opts.threads(), 3u);
  EXPECT_EQ(Opts.config().Timeout, std::chrono::milliseconds(1234));
  EXPECT_EQ(Opts.config().Level, SpecLevel::Spec1);
  EXPECT_FALSE(Opts.config().UseDeduction);
  EXPECT_FALSE(Opts.config().UsePartialEval);
  EXPECT_FALSE(Opts.config().UseNGram);
  EXPECT_EQ(Opts.config().MaxComponents, 2u);
}

TEST(Engine, SequentialSolveSatisfiesTheExample) {
  Engine E = Engine::standard(
      EngineOptions().timeout(std::chrono::seconds(30)));
  Problem P = Problem::fromTables({studentsTable()}, nameAgeOutput());
  Solution S = E.solve(P);
  ASSERT_TRUE(S);
  EXPECT_EQ(S.Result, Outcome::Solved);
  EXPECT_TRUE(S.Workers.empty()); // sequential strategy: no member reports
  std::optional<Table> Out = S.Program->evaluate(P.Inputs);
  ASSERT_TRUE(Out);
  EXPECT_TRUE(Out->equalsUnordered(P.Output));
}

TEST(Engine, PortfolioSolveReportsWinner) {
  Engine E = Engine::standard(EngineOptions()
                                  .strategy(Strategy::Portfolio)
                                  .timeout(std::chrono::seconds(30)));
  Problem P = Problem::fromTables({studentsTable()}, nameAgeOutput());
  Solution S = E.solve(P);
  ASSERT_TRUE(S);
  EXPECT_EQ(S.Result, Outcome::Solved);
  ASSERT_FALSE(S.Workers.empty());
  ASSERT_GE(S.WinnerIndex, 0);
  ASSERT_LT(size_t(S.WinnerIndex), S.Workers.size());
  EXPECT_TRUE(S.Workers[size_t(S.WinnerIndex)].Solved);
}

/// A problem the sequential engine needs well over a second for, so
/// cancellation tests can observe an early abort.
Problem flightsProblem() {
  Table Flights = makeTable({{"flight", CellType::Num},
                             {"origin", CellType::Str},
                             {"dest", CellType::Str}},
                            {{num(11), str("EWR"), str("SEA")},
                             {num(725), str("JFK"), str("BQN")},
                             {num(495), str("JFK"), str("SEA")},
                             {num(461), str("LGA"), str("ATL")},
                             {num(1696), str("EWR"), str("ORD")},
                             {num(1670), str("EWR"), str("SEA")}});
  Table Out = makeTable({{"origin", CellType::Str},
                         {"n", CellType::Num},
                         {"prop", CellType::Num}},
                        {{str("EWR"), num(2), num(2.0 / 3.0)},
                         {str("JFK"), num(1), num(1.0 / 3.0)}});
  return Problem::fromTables({Flights}, Out);
}

TEST(Engine, PreCancelledTokenYieldsCancelledOutcome) {
  Engine E = Engine::standard(
      EngineOptions().timeout(std::chrono::seconds(30)));
  CancellationToken Cancel = CancellationToken::create();
  Cancel.requestStop();
  Solution S = E.solve(flightsProblem(), Cancel);
  EXPECT_FALSE(S);
  EXPECT_EQ(S.Result, Outcome::Cancelled);
  EXPECT_LT(S.Seconds, 5.0);
}

TEST(Engine, HonorsTokenEmbeddedInRawConfig) {
  // A token smuggled in through the EngineOptions::config escape hatch
  // must cancel the search too, not be silently replaced.
  SynthesisConfig Cfg;
  Cfg.Timeout = std::chrono::seconds(30);
  CancellationToken Tok = CancellationToken::create();
  Tok.requestStop();
  Cfg.Cancel = Tok;
  Solution S = Engine::standard(EngineOptions().config(Cfg))
                   .solve(flightsProblem());
  EXPECT_FALSE(S);
  EXPECT_EQ(S.Result, Outcome::Cancelled);
  EXPECT_LT(S.Seconds, 5.0);
}

TEST(Engine, UnsolvableProblemTimesOutOrExhausts) {
  Table In = makeTable({{"a", CellType::Num}}, {{num(1)}, {num(2)}});
  // No component invents the string "nope".
  Table Out = makeTable({{"ghost", CellType::Str}}, {{str("nope")}});

  // Big space + tiny budget -> Timeout.
  Solution T = Engine::standard(
                   EngineOptions().timeout(std::chrono::milliseconds(100)))
                   .solve(Problem::fromTables({In}, Out));
  EXPECT_FALSE(T);
  EXPECT_EQ(T.Result, Outcome::Timeout);

  // Size-1 space + long budget -> the search space empties: Exhausted.
  Solution X = Engine::standard(EngineOptions()
                                    .maxComponents(1)
                                    .timeout(std::chrono::seconds(60)))
                   .solve(Problem::fromTables({In}, Out));
  EXPECT_FALSE(X);
  EXPECT_EQ(X.Result, Outcome::Exhausted);
}

TEST(Engine, SqlEngineUsesSqlComponents) {
  Engine E = Engine::sql(EngineOptions().timeout(std::chrono::seconds(30)));
  for (const TableTransformer *T : E.library().TableTransformers)
    EXPECT_NE(T->name(), "gather"); // reshaping verbs are tidy-only
  Problem P = Problem::fromTables({studentsTable()}, nameAgeOutput());
  Solution S = E.solve(P);
  ASSERT_TRUE(S);
}

/// A custom component that overrides apply only (select's kernel under
/// another name): it keeps the default header gate, which says `true`.
class KeepColumns final : public TableTransformer {
public:
  KeepColumns() : TableTransformer("keep_cols", 1, {ParamKind::ColsOrdered}) {}

  std::optional<Table> apply(const std::vector<Table> &Tables,
                             const std::vector<TermPtr> &Args) const override {
    return StandardComponents::get().find("select")->apply(Tables, Args);
  }
};

TEST(Engine, CustomComponentWithoutGateSolvesAsBefore) {
  KeepColumns Keep;
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  Lib.TableTransformers = {&Keep, Lib.findTable("filter")};
  Engine E(Lib, EngineOptions().timeout(std::chrono::seconds(30)));
  Solution S =
      E.solve(Problem::fromTables({studentsTable()}, nameAgeOutput()));
  ASSERT_TRUE(S);
  // The program found before components had gates; keep_cols owns the
  // last hole, so every one of its candidates ran the default gate.
  EXPECT_EQ(printSexp(S.Program),
            "(keep_cols (filter (input 0) (> (col id) (num 1))) "
            "(cols name age))");
}

TEST(Problem, InputNamesDefaultPositionally) {
  Problem P = Problem::fromTables({studentsTable(), studentsTable()},
                                  nameAgeOutput());
  EXPECT_EQ(P.inputNames(), (std::vector<std::string>{"x0", "x1"}));
  P.InputNames = {"left"};
  EXPECT_EQ(P.inputNames(), (std::vector<std::string>{"left", "x1"}));
}

TEST(Suite, ToProblemCarriesTaskFields) {
  const std::vector<BenchmarkTask> &Suite = morpheusSuite();
  ASSERT_FALSE(Suite.empty());
  const BenchmarkTask &T = Suite.front();
  Problem P = toProblem(T);
  EXPECT_EQ(P.Name, T.Id);
  EXPECT_EQ(P.Inputs.size(), T.Inputs.size());
  EXPECT_TRUE(P.Output.equalsOrdered(T.Output));
  EXPECT_EQ(P.OrderedCompare, T.OrderedCompare);

  // The facade solves what the old free-function layer solved.
  Engine E(libraryForTask(T),
           EngineOptions().config(
               configSpec2(std::chrono::milliseconds(20000))));
  Solution S = E.solve(P);
  EXPECT_TRUE(S);
}

TEST(Engine, SolvesProblemParsedFromJson) {
  const char *Doc = R"({
    "name": "inline",
    "inputs": [{
      "name": "roster",
      "columns": [{"name": "id", "type": "num"},
                  {"name": "name", "type": "str"},
                  {"name": "age", "type": "num"},
                  {"name": "GPA", "type": "num"}],
      "rows": [[1, "Alice", 8, 4.0], [2, "Bob", 18, 3.2],
               [3, "Tom", 12, 3.0]]
    }],
    "output": {
      "columns": [{"name": "name", "type": "str"},
                  {"name": "age", "type": "num"}],
      "rows": [["Bob", 18], ["Tom", 12]]
    }
  })";
  std::string Err;
  std::optional<JsonValue> V = parseJson(Doc, &Err);
  ASSERT_TRUE(V) << Err;
  std::optional<Problem> P = problemFromJson(*V, &Err);
  ASSERT_TRUE(P) << Err;
  EXPECT_EQ(P->inputNames(), (std::vector<std::string>{"roster"}));

  Solution S = Engine::standard(
                   EngineOptions().timeout(std::chrono::seconds(30)))
                   .solve(*P);
  ASSERT_TRUE(S);
  std::optional<Table> Out = S.Program->evaluate(P->Inputs);
  ASSERT_TRUE(Out);
  EXPECT_TRUE(Out->equalsUnordered(P->Output));
}

} // namespace
