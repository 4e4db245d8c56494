//===- tests/CompletionMemoTest.cpp - Completed-node memo of sketch fill ---==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sketch completion skips the rest of a completion when a node's table
/// exactly equals one already explored for that node under the same
/// prefix. These hand-built searches pin both sides of "exactly": several
/// fills yielding one table are explored once, while tables that are
/// equal only up to row order, grouping or numeric tolerance are each
/// explored — each example's program is only reachable through the
/// second of two such tables, so merging them would lose it. A skipped
/// sub-search is charged the work it consumed, so a work budget cuts a
/// sketch exactly where it did before the memo.
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"
#include "io/ProgramIO.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace morpheus;

namespace {

/// The tidy library cut down to \p Names, so one sketch family is searched.
ComponentLibrary libraryOf(std::initializer_list<const char *> Names) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  std::vector<const TableTransformer *> Keep;
  for (const TableTransformer *T : Lib.TableTransformers)
    for (const char *N : Names)
      if (T->name() == N)
        Keep.push_back(T);
  Lib.TableTransformers = std::move(Keep);
  return Lib;
}

/// Two-component programs only.
SynthesisConfig twoComponents() {
  SynthesisConfig Cfg;
  Cfg.MinComponents = 2;
  Cfg.MaxComponents = 2;
  Cfg.Timeout = std::chrono::seconds(60);
  return Cfg;
}

HypPtr apply(const char *Component, std::vector<HypPtr> Args) {
  return Hypothesis::apply(StandardComponents::get().find(Component),
                           std::move(Args));
}

HypPtr cols(ParamKind K, std::vector<std::string> Names) {
  return Hypothesis::filled(K, Term::colsLit(std::move(Names)));
}

/// One row with a = 0.001 and b = 1e-11. Every aggregate of `a` over one
/// row is `a` itself, so mutate's aggregate fills repeat one table; a + b
/// is 0.00100000001, equal to `a` within Value's tolerance and in its
/// printed form, but not bit for bit. Dividing by `a` then tells them
/// apart: 1 vs 1.00000001 is well past the tolerance.
Table tinyInput() {
  return makeTable({{"a", CellType::Num}, {"b", CellType::Num}},
                   {{num(0.001), num(1e-11)}});
}

Table tinyOutput() {
  double New = 0.001 + 1e-11;
  return makeTable({{"a", CellType::Num},
                    {"b", CellType::Num},
                    {"new", CellType::Num},
                    {"e", CellType::Num}},
                   {{num(0.001), num(1e-11), num(New), num(New / 0.001)}});
}

const char *TinyProgram = "(mutate (mutate (input 0) (name new) (+ (col a) "
                          "(col b))) (name e) (/ (col new) (col a)))";

TEST(CompletionMemo, RepeatedTablesAreExploredOnce) {
  SynthesisResult R = Synthesizer(libraryOf({"mutate"}), twoComponents())
                          .synthesize({tinyInput()}, tinyOutput());
  ASSERT_TRUE(R.Program);
  EXPECT_EQ(printSexp(R.Program), TinyProgram);
  EXPECT_GT(R.Stats.ReusedCompletions, 0u);
}

TEST(CompletionMemo, SkippedWorkIsChargedSoBudgetsCutAsBefore) {
  // Before the memo this search needed a budget of 20,906 work units to
  // reach its program, checking 20,896 candidates on the way. The memo
  // checks far fewer but charges every skipped sub-search what it
  // consumed, so the budget still cuts at the same unit.
  auto SolveWithin = [](uint64_t Budget) {
    SynthesisConfig Cfg = twoComponents();
    Cfg.MaxWorkPerSketch = Budget;
    return Synthesizer(libraryOf({"mutate"}), Cfg)
        .synthesize({tinyInput()}, tinyOutput());
  };
  SynthesisResult Cut = SolveWithin(20905);
  EXPECT_FALSE(Cut.Program);
  EXPECT_FALSE(Cut.Stats.TimedOut);
  SynthesisResult Fits = SolveWithin(20906);
  ASSERT_TRUE(Fits.Program);
  EXPECT_EQ(printSexp(Fits.Program), TinyProgram);
  EXPECT_LT(Fits.Stats.CandidatesChecked, 20896u);
}

TEST(CompletionMemo, TablesEqualWithinToleranceAreBothExplored) {
  // The premise: the two inner tables collide on the fingerprint and
  // compare equal, yet differ in their bits.
  const ComponentLibrary Lib = libraryOf({"mutate"});
  auto Inner = [&](TermPtr Expr) {
    return apply("mutate", {Hypothesis::input(0),
                            Hypothesis::filled(ParamKind::NewName,
                                               Term::nameLit("new")),
                            Hypothesis::filled(ParamKind::NumExpr, Expr)});
  };
  const ValueTransformer *Sum = Lib.findValue("sum");
  const ValueTransformer *Plus = Lib.findValue("+");
  ASSERT_TRUE(Sum && Plus);
  std::optional<Table> First =
      Inner(Term::app(Sum, {Term::colRef("a")}))->evaluate({tinyInput()});
  std::optional<Table> Second =
      Inner(Term::app(Plus, {Term::colRef("a"), Term::colRef("b")}))
          ->evaluate({tinyInput()});
  ASSERT_TRUE(First && Second);
  EXPECT_EQ(First->fingerprint(), Second->fingerprint());
  EXPECT_TRUE(First->equalsOrdered(*Second));
  EXPECT_NE(First->at(0, 2).num(), Second->at(0, 2).num());

  // The program divides the second table's column, so it is only found
  // when that table is explored after the first.
  SynthesisResult R = Synthesizer(Lib, twoComponents())
                          .synthesize({tinyInput()}, tinyOutput());
  ASSERT_TRUE(R.Program);
  EXPECT_EQ(printSexp(R.Program), TinyProgram);
}

TEST(CompletionMemo, TablesEqualUpToRowOrderAreBothExplored) {
  // arrange by a keeps the input order; arrange by b is the order the
  // output needs, after b itself is dropped — no sort on a or c yields
  // it, so the only program sorts first and selects second.
  Table In = makeTable(
      {{"a", CellType::Num}, {"b", CellType::Num}, {"c", CellType::Num}},
      {{num(1), num(3), num(5)},
       {num(2), num(1), num(6)},
       {num(3), num(2), num(4)}});
  Table Out = makeTable({{"a", CellType::Num}, {"c", CellType::Num}},
                        {{num(2), num(6)}, {num(3), num(4)}, {num(1), num(5)}});
  std::optional<Table> ByA =
      apply("arrange",
            {Hypothesis::input(0), cols(ParamKind::ColsOrdered, {"a"})})
          ->evaluate({In});
  std::optional<Table> ByB =
      apply("arrange",
            {Hypothesis::input(0), cols(ParamKind::ColsOrdered, {"b"})})
          ->evaluate({In});
  ASSERT_TRUE(ByA && ByB);
  EXPECT_EQ(ByA->fingerprint(), ByB->fingerprint());
  EXPECT_TRUE(ByA->equalsUnordered(*ByB));
  EXPECT_FALSE(ByA->equalsOrdered(*ByB));

  SynthesisConfig Cfg = twoComponents();
  Cfg.OrderedCompare = true;
  SynthesisResult R =
      Synthesizer(libraryOf({"arrange", "select"}), Cfg).synthesize({In}, Out);
  ASSERT_TRUE(R.Program);
  EXPECT_EQ(printSexp(R.Program),
            "(select (arrange (input 0) (cols b)) (cols a c))");
}

TEST(CompletionMemo, TablesDifferingOnlyInGroupingAreBothExplored) {
  // group_by on a and on b alias the same cells; only the second grouping
  // sums to the output.
  Table In = makeTable(
      {{"a", CellType::Str}, {"b", CellType::Str}, {"v", CellType::Num}},
      {{str("p"), str("x"), num(1)},
       {str("p"), str("y"), num(2)},
       {str("q"), str("x"), num(4)}});
  Table Out = makeTable({{"b", CellType::Str}, {"total", CellType::Num}},
                        {{str("x"), num(5)}, {str("y"), num(2)}});
  std::optional<Table> ByA =
      apply("group_by", {Hypothesis::input(0), cols(ParamKind::Cols, {"a"})})
          ->evaluate({In});
  std::optional<Table> ByB =
      apply("group_by", {Hypothesis::input(0), cols(ParamKind::Cols, {"b"})})
          ->evaluate({In});
  ASSERT_TRUE(ByA && ByB);
  EXPECT_EQ(ByA->fingerprint(), ByB->fingerprint());
  EXPECT_TRUE(ByA->equalsOrdered(*ByB));
  EXPECT_NE(ByA->groupCols(), ByB->groupCols());

  SynthesisResult R =
      Synthesizer(libraryOf({"group_by", "summarise"}), twoComponents())
          .synthesize({In}, Out);
  ASSERT_TRUE(R.Program);
  EXPECT_EQ(printSexp(R.Program),
            "(summarise (group_by (input 0) (cols b)) (name total) (sum (col "
            "v)))");
}

} // namespace
