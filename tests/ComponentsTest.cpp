//===- tests/ComponentsTest.cpp - Component semantics -------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-table tests for every table transformer, including the paper's
/// own worked examples (Figures 8, 9 and 15), and tests of the header
/// gates (TableTransformer::mayYield): they reject wrong headers, and they
/// accept every table the suites' ground truths evaluate to.
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"
#include "suite/Task.h"

#include <gtest/gtest.h>

#include <set>

using namespace morpheus;
using namespace morpheus::pb;

namespace {

Table evalOrDie(const HypPtr &P, const std::vector<Table> &Inputs) {
  std::optional<Table> T = P->evaluate(Inputs);
  EXPECT_TRUE(T.has_value());
  return T ? *T : Table();
}

Table paperT1() {
  // Figure 8, Table T1.
  return makeTable({{"id", CellType::Num},
                    {"name", CellType::Str},
                    {"age", CellType::Num},
                    {"GPA", CellType::Num}},
                   {{num(1), str("Alice"), num(8), num(4.0)},
                    {num(2), str("Bob"), num(18), num(3.2)},
                    {num(3), str("Tom"), num(12), num(3.0)}});
}

TEST(Filter, PaperFigure9) {
  // σ_{age>8}(T1) = Figure 8's T2.
  Table Out = evalOrDie(filter(in(0), "age", ">", num(8)), {paperT1()});
  Table Expected = makeTable({{"id", CellType::Num},
                              {"name", CellType::Str},
                              {"age", CellType::Num},
                              {"GPA", CellType::Num}},
                             {{num(2), str("Bob"), num(18), num(3.2)},
                              {num(3), str("Tom"), num(12), num(3.0)}});
  EXPECT_TRUE(Out.equalsOrdered(Expected));
}

TEST(Filter, PaperFigure15) {
  // σ_{age>12}(T1) = Figure 15's T4 (one row).
  Table Out = evalOrDie(filter(in(0), "age", ">", num(12)), {paperT1()});
  EXPECT_EQ(Out.numRows(), 1u);
  EXPECT_EQ(Out.at(0, 1), str("Bob"));
}

TEST(Filter, TypeMismatchFailsCandidate) {
  HypPtr P = filter(in(0), "age", ">", str("old"));
  EXPECT_FALSE(P->evaluate({paperT1()}).has_value());
}

TEST(Filter, NoOpPredicateFailsCandidate) {
  // A predicate keeping every row is rejected (the paper's filter
  // footnote; Table 2's row(y) < row(x) is sound only because of it).
  // Regression for a mismatch found by `morpheus analyze`.
  EXPECT_FALSE(
      filter(in(0), "age", ">", num(0))->evaluate({paperT1()}).has_value());
}

TEST(Select, ProjectsInGivenOrder) {
  Table Out = evalOrDie(select(in(0), {"name", "id"}), {paperT1()});
  EXPECT_EQ(Out.schema().names(),
            (std::vector<std::string>{"name", "id"}));
  EXPECT_EQ(Out.at(0, 0), str("Alice"));
}

TEST(Select, MissingColumnFails) {
  EXPECT_FALSE(select(in(0), {"ghost"})->evaluate({paperT1()}).has_value());
}

TEST(Select, FullWidthSelectFailsCandidate) {
  // Keeping every column (in any order) is a no-op the search must not
  // consider; Table 2's col(y) < col(x) depends on it. Regression for a
  // mismatch found by `morpheus analyze`.
  EXPECT_FALSE(select(in(0), {"GPA", "age", "name", "id"})
                   ->evaluate({paperT1()})
                   .has_value());
}

TEST(Gather, MeltsColumns) {
  Table In = makeTable({{"id", CellType::Str},
                        {"a", CellType::Num},
                        {"b", CellType::Num}},
                       {{str("x"), num(1), num(2)},
                        {str("y"), num(3), num(4)}});
  Table Out = evalOrDie(gather(in(0), "key", "val", {"a", "b"}), {In});
  Table Expected = makeTable({{"id", CellType::Str},
                              {"key", CellType::Str},
                              {"val", CellType::Num}},
                             {{str("x"), str("a"), num(1)},
                              {str("x"), str("b"), num(2)},
                              {str("y"), str("a"), num(3)},
                              {str("y"), str("b"), num(4)}});
  EXPECT_TRUE(Out.equalsOrdered(Expected));
}

TEST(Gather, MixedTypesCoerceToString) {
  Table In = makeTable({{"id", CellType::Str},
                        {"a", CellType::Num},
                        {"b", CellType::Str}},
                       {{str("x"), num(1), str("one")}});
  Table Out = evalOrDie(gather(in(0), "key", "val", {"a", "b"}), {In});
  EXPECT_EQ(Out.schema()[2].Type, CellType::Str);
  EXPECT_EQ(Out.at(0, 2), str("1"));
}

TEST(Gather, RejectsSingleColumnAndCollidingNames) {
  Table In = makeTable({{"id", CellType::Str}, {"a", CellType::Num}},
                       {{str("x"), num(1)}});
  EXPECT_FALSE(gather(in(0), "key", "val", {"a"})->evaluate({In}));
  Table In2 = makeTable(
      {{"id", CellType::Str}, {"a", CellType::Num}, {"b", CellType::Num}},
      {{str("x"), num(1), num(2)}});
  EXPECT_FALSE(gather(in(0), "id", "val", {"a", "b"})->evaluate({In2}));
  EXPECT_FALSE(gather(in(0), "k", "k", {"a", "b"})->evaluate({In2}));
}

TEST(Spread, WidensKeyValuePairs) {
  Table In = makeTable({{"id", CellType::Str},
                        {"key", CellType::Str},
                        {"val", CellType::Num}},
                       {{str("x"), str("a"), num(1)},
                        {str("x"), str("b"), num(2)},
                        {str("y"), str("a"), num(3)},
                        {str("y"), str("b"), num(4)}});
  Table Out = evalOrDie(spread(in(0), "key", "val"), {In});
  Table Expected = makeTable({{"id", CellType::Str},
                              {"a", CellType::Num},
                              {"b", CellType::Num}},
                             {{str("x"), num(1), num(2)},
                              {str("y"), num(3), num(4)}});
  EXPECT_TRUE(Out.equalsOrdered(Expected));
}

TEST(Spread, GatherRoundTrip) {
  Table In = makeTable({{"id", CellType::Str},
                        {"a", CellType::Num},
                        {"b", CellType::Num}},
                       {{str("x"), num(1), num(2)},
                        {str("y"), num(3), num(4)}});
  Table Out = evalOrDie(
      spread(gather(in(0), "key", "val", {"a", "b"}), "key", "val"), {In});
  EXPECT_TRUE(Out.equalsUnordered(In));
}

TEST(Spread, RejectsDuplicateAndMissingCombinations) {
  Table Dup = makeTable({{"id", CellType::Str},
                         {"key", CellType::Str},
                         {"val", CellType::Num}},
                        {{str("x"), str("a"), num(1)},
                         {str("x"), str("a"), num(2)}});
  EXPECT_FALSE(spread(in(0), "key", "val")->evaluate({Dup}));
  Table Missing = makeTable({{"id", CellType::Str},
                             {"key", CellType::Str},
                             {"val", CellType::Num}},
                            {{str("x"), str("a"), num(1)},
                             {str("y"), str("b"), num(2)}});
  EXPECT_FALSE(spread(in(0), "key", "val")->evaluate({Missing}));
}

TEST(Separate, SplitsOnSeparator) {
  Table In = makeTable({{"key", CellType::Str}, {"v", CellType::Num}},
                       {{str("a_1"), num(10)}, {str("b_2"), num(20)}});
  Table Out = evalOrDie(separate(in(0), "key", "letter", "digit"), {In});
  EXPECT_EQ(Out.schema().names(),
            (std::vector<std::string>{"letter", "digit", "v"}));
  EXPECT_EQ(Out.at(1, 0), str("b"));
  EXPECT_EQ(Out.at(1, 1), str("2"));
}

TEST(Separate, RejectsUnsplittableCells) {
  Table In = makeTable({{"key", CellType::Str}}, {{str("nounderscore")}});
  EXPECT_FALSE(separate(in(0), "key", "a", "b")->evaluate({In}));
}

TEST(Unite, FusesAndDropsColumns) {
  Table In = makeTable({{"a", CellType::Str},
                        {"x", CellType::Num},
                        {"b", CellType::Str}},
                       {{str("p"), num(1), str("q")}});
  Table Out = evalOrDie(unite(in(0), "ab", "a", "b"), {In});
  EXPECT_EQ(Out.schema().names(), (std::vector<std::string>{"ab", "x"}));
  EXPECT_EQ(Out.at(0, 0), str("p_q"));
}

TEST(Unite, SeparateRoundTrip) {
  Table In = makeTable({{"a", CellType::Str}, {"b", CellType::Str}},
                       {{str("p"), str("q")}, {str("r"), str("s")}});
  Table Out = evalOrDie(separate(unite(in(0), "ab", "a", "b"), "ab", "a", "b"),
                        {In});
  EXPECT_TRUE(Out.equalsOrdered(In));
}

TEST(GroupBySummarise, CountsPerGroup) {
  Table In = makeTable({{"k", CellType::Str}, {"v", CellType::Num}},
                       {{str("a"), num(1)},
                        {str("b"), num(2)},
                        {str("a"), num(3)}});
  Table Out =
      evalOrDie(summarise(groupBy(in(0), {"k"}), "cnt", "n"), {In});
  Table Expected = makeTable({{"k", CellType::Str}, {"cnt", CellType::Num}},
                             {{str("a"), num(2)}, {str("b"), num(1)}});
  EXPECT_TRUE(Out.equalsUnordered(Expected));
  EXPECT_FALSE(Out.isGrouped()); // summarise drops the last grouping level
}

TEST(GroupBySummarise, TwoLevelGroupingKeepsOuterLevel) {
  Table In = makeTable({{"k", CellType::Str},
                        {"j", CellType::Str},
                        {"v", CellType::Num}},
                       {{str("a"), str("x"), num(1)},
                        {str("a"), str("y"), num(2)},
                        {str("b"), str("x"), num(4)}});
  Table Out = evalOrDie(
      summarise(groupBy(in(0), {"k", "j"}), "total", "sum", "v"), {In});
  EXPECT_EQ(Out.numRows(), 3u);
  EXPECT_EQ(Out.groupCols(), (std::vector<std::string>{"k"}));
}

TEST(Summarise, UngroupedGivesOneRow) {
  Table In = makeTable({{"v", CellType::Num}, {"w", CellType::Num}},
                       {{num(1), num(5)}, {num(3), num(6)}});
  Table Out = evalOrDie(summarise(in(0), "total", "sum", "v"), {In});
  EXPECT_EQ(Out.numRows(), 1u);
  EXPECT_EQ(Out.numCols(), 1u);
  EXPECT_EQ(Out.at(0, 0), num(4));
}

TEST(Summarise, AggregatesMeanMinMax) {
  Table In = makeTable({{"k", CellType::Str}, {"v", CellType::Num}},
                       {{str("a"), num(2)},
                        {str("a"), num(4)},
                        {str("b"), num(10)}});
  EXPECT_EQ(evalOrDie(summarise(groupBy(in(0), {"k"}), "m", "mean", "v"),
                      {In})
                .at(0, 1),
            num(3));
  EXPECT_EQ(evalOrDie(summarise(groupBy(in(0), {"k"}), "m", "min", "v"),
                      {In})
                .at(0, 1),
            num(2));
  EXPECT_EQ(evalOrDie(summarise(groupBy(in(0), {"k"}), "m", "max", "v"),
                      {In})
                .at(0, 1),
            num(4));
}

TEST(Mutate, RowwiseExpression) {
  Table In = makeTable({{"a", CellType::Num}, {"b", CellType::Num}},
                       {{num(6), num(2)}, {num(9), num(3)}});
  Table Out =
      evalOrDie(mutate(in(0), "q", bin("/", col("a"), col("b"))), {In});
  EXPECT_EQ(Out.at(0, 2), num(3));
  EXPECT_EQ(Out.at(1, 2), num(3));
}

TEST(Mutate, AggregateRespectsGrouping) {
  Table In = makeTable({{"k", CellType::Str}, {"v", CellType::Num}},
                       {{str("a"), num(1)},
                        {str("a"), num(3)},
                        {str("b"), num(10)}});
  // Ungrouped: sum(v) = 14 for every row.
  Table U = evalOrDie(
      mutate(in(0), "s", bin("/", col("v"), agg("sum", "v"))), {In});
  EXPECT_EQ(U.at(0, 2), num(1.0 / 14));
  // Grouped: sums are per group.
  Table G = evalOrDie(
      mutate(groupBy(in(0), {"k"}), "s",
             bin("/", col("v"), agg("sum", "v"))),
      {In});
  EXPECT_EQ(G.at(0, 2), num(0.25));
  EXPECT_EQ(G.at(2, 2), num(1));
}

TEST(Mutate, RejectsExistingNameAndDivisionByZero) {
  Table In = makeTable({{"a", CellType::Num}}, {{num(1)}});
  EXPECT_FALSE(mutate(in(0), "a", col("a"))->evaluate({In}));
  Table Z = makeTable({{"a", CellType::Num}, {"b", CellType::Num}},
                      {{num(1), num(0)}});
  EXPECT_FALSE(
      mutate(in(0), "q", bin("/", col("a"), col("b")))->evaluate({Z}));
}

TEST(InnerJoin, NaturalJoinOnSharedColumns) {
  Table A = makeTable({{"k", CellType::Str}, {"v", CellType::Num}},
                      {{str("x"), num(1)}, {str("y"), num(2)}});
  Table B = makeTable({{"k", CellType::Str}, {"w", CellType::Num}},
                      {{str("y"), num(20)}, {str("x"), num(10)}});
  Table Out = evalOrDie(innerJoin(in(0), in(1)), {A, B});
  Table Expected = makeTable({{"k", CellType::Str},
                              {"v", CellType::Num},
                              {"w", CellType::Num}},
                             {{str("x"), num(1), num(10)},
                              {str("y"), num(2), num(20)}});
  EXPECT_TRUE(Out.equalsUnordered(Expected));
}

TEST(InnerJoin, RejectsDisjointAndTypeMismatchedSchemas) {
  Table A = makeTable({{"a", CellType::Str}}, {{str("x")}});
  Table B = makeTable({{"b", CellType::Str}}, {{str("y")}});
  EXPECT_FALSE(innerJoin(in(0), in(1))->evaluate({A, B}));
  Table C = makeTable({{"a", CellType::Num}, {"c", CellType::Num}},
                      {{num(1), num(2)}});
  Table D = makeTable({{"a", CellType::Str}, {"d", CellType::Num}},
                      {{str("1"), num(3)}});
  EXPECT_FALSE(innerJoin(in(0), in(1))->evaluate({C, D}));
}

TEST(Arrange, StableSortByColumns) {
  Table In = makeTable({{"a", CellType::Num}, {"b", CellType::Str}},
                       {{num(2), str("x")},
                        {num(1), str("z")},
                        {num(2), str("a")}});
  Table Out = evalOrDie(arrange(in(0), {"a", "b"}), {In});
  EXPECT_EQ(Out.at(0, 0), num(1));
  EXPECT_EQ(Out.at(1, 1), str("a"));
  EXPECT_EQ(Out.at(2, 1), str("x"));
}

TEST(Distinct, DropsDuplicateRowsOnly) {
  Table In = makeTable({{"a", CellType::Num}},
                       {{num(1)}, {num(2)}, {num(1)}});
  Table Out = evalOrDie(distinct(in(0)), {In});
  EXPECT_EQ(Out.numRows(), 2u);
  // A no-op distinct is rejected (mirrors the filter footnote).
  Table NoDup = makeTable({{"a", CellType::Num}}, {{num(1)}, {num(2)}});
  EXPECT_FALSE(distinct(in(0))->evaluate({NoDup}));
}

TEST(GroupBy, RejectsGroupingByAllColumnsOrRegrouping) {
  Table In = makeTable({{"a", CellType::Num}}, {{num(1)}});
  EXPECT_FALSE(groupBy(in(0), {"a"})->evaluate({In}));
  Table In2 = makeTable({{"a", CellType::Num}, {"b", CellType::Num}},
                        {{num(1), num(2)}});
  EXPECT_FALSE(
      groupBy(groupBy(in(0), {"a"}), {"b"})->evaluate({In2}).has_value());
}

//===----------------------------------------------------------------------===//
// Header gates
//===----------------------------------------------------------------------===//

/// The gate of \p P's root component, asked with \p P's own children as
/// its arguments (evaluated on \p Inputs) and \p Want as the wanted table.
bool rootMayYield(const HypPtr &P, const std::vector<Table> &Inputs,
                  const Table &Want) {
  std::vector<Table> Tables;
  std::vector<TermPtr> Args;
  for (const HypPtr &C : P->children()) {
    if (C->isTableTyped())
      Tables.push_back(evalOrDie(C, Inputs));
    else
      Args.push_back(C->term());
  }
  return P->component()->mayYield(Tables, Args, Want);
}

/// \p T with its rows truncated to the first \p N (same header).
Table firstRows(const Table &T, size_t N) {
  std::vector<Row> Rows;
  for (size_t R = 0; R != N; ++R)
    Rows.push_back(T.row(R));
  return Table(T.schema(), Rows);
}

TEST(Gates, AcceptTheKernelsOwnOutputAndRejectWrongHeaders) {
  Table T1 = paperT1();
  // Each program's own output passes its gate; the same header with one
  // row fewer does not, since none of these verbs can drop a row here.
  for (const HypPtr &P :
       {select(in(0), {"name", "age"}), arrange(in(0), {"age"}),
        mutate(in(0), "sum", bin("+", col("age"), col("GPA"))),
        gather(in(0), "k", "v", {"age", "GPA"}),
        unite(in(0), "who", "id", "name")}) {
    Table Out = evalOrDie(P, {T1});
    EXPECT_TRUE(rootMayYield(P, {T1}, Out)) << P->toString();
    EXPECT_FALSE(rootMayYield(P, {T1}, firstRows(Out, Out.numRows() - 1)))
        << P->toString();
  }
  // Column order is part of the header.
  Table NameAge = evalOrDie(select(in(0), {"name", "age"}), {T1});
  EXPECT_FALSE(rootMayYield(select(in(0), {"age", "name"}), {T1}, NameAge));
  // A filter must drop a row: T1 itself is never its output.
  HypPtr F = filter(in(0), "age", ">", num(8));
  EXPECT_TRUE(rootMayYield(F, {T1}, evalOrDie(F, {T1})));
  EXPECT_FALSE(rootMayYield(F, {T1}, T1));
  // Ungrouped summarise yields one row.
  HypPtr S = summarise(in(0), "n", "n");
  Table One = evalOrDie(S, {T1});
  EXPECT_TRUE(rootMayYield(S, {T1}, One));
  std::vector<Row> Two{One.row(0), One.row(0)};
  EXPECT_FALSE(rootMayYield(S, {T1}, Table(One.schema(), Two)));
}

TEST(Gates, SpreadTestsIdColumnsAndCellCountBeforeAnyToken) {
  Table In = makeTable({{"id", CellType::Str},
                        {"key", CellType::Str},
                        {"val", CellType::Num}},
                       {{str("x"), str("a"), num(1)},
                        {str("x"), str("b"), num(2)},
                        {str("y"), str("a"), num(3)},
                        {str("y"), str("b"), num(4)}});
  HypPtr Right = spread(in(0), "key", "val");
  Table Out = evalOrDie(Right, {In});
  EXPECT_TRUE(rootMayYield(Right, {In}, Out));
  // Spreading by the wrong value column leaves `val` among the id columns,
  // so the id columns no longer lead Out's header.
  EXPECT_FALSE(rootMayYield(spread(in(0), "key", "id"), {In}, Out));
  EXPECT_FALSE(rootMayYield(spread(in(0), "id", "val"), {In}, Out));
  // Four input rows cannot fill 1 row x 2 spread columns.
  EXPECT_FALSE(rootMayYield(Right, {In}, firstRows(Out, 1)));
}

/// Evaluates \p H bottom-up on \p Inputs, requiring at every Apply node
/// that its component's gate accepts the node's own table; records the
/// gated components' names in \p Seen.
std::optional<Table> evalThroughGates(const HypPtr &H,
                                      const std::vector<Table> &Inputs,
                                      const std::string &Id,
                                      std::set<std::string> &Seen) {
  if (H->isInput())
    return Inputs[H->inputIndex()];
  std::vector<Table> Tables;
  std::vector<TermPtr> Args;
  for (const HypPtr &C : H->children()) {
    if (!C->isTableTyped()) {
      Args.push_back(C->term());
      continue;
    }
    std::optional<Table> T = evalThroughGates(C, Inputs, Id, Seen);
    if (!T)
      return std::nullopt;
    Tables.push_back(std::move(*T));
  }
  const TableTransformer *X = H->component();
  std::optional<Table> Out = X->apply(Tables, Args);
  if (!Out) {
    ADD_FAILURE() << Id << ": " << X->name() << " failed to evaluate";
    return std::nullopt;
  }
  EXPECT_TRUE(X->mayYield(Tables, Args, *Out))
      << Id << ": the " << X->name() << " gate rejects its own output";
  Seen.insert(X->name());
  return Out;
}

TEST(Gates, AcceptEveryGroundTruthNodeOfBothSuites) {
  std::vector<BenchmarkTask> All = morpheusSuite();
  for (const BenchmarkTask &T : sqlSuite())
    All.push_back(T);
  ASSERT_EQ(All.size(), 108u);
  std::set<std::string> Seen;
  for (const BenchmarkTask &T : All) {
    std::optional<Table> Out =
        evalThroughGates(T.GroundTruth, T.Inputs, T.Id, Seen);
    ASSERT_TRUE(Out) << T.Id;
    EXPECT_TRUE(Out->equalsOrdered(T.Output)) << T.Id;
  }
  for (const char *Verb : {"select", "filter", "group_by", "arrange",
                           "mutate", "summarise", "gather", "spread",
                           "separate", "unite"})
    EXPECT_TRUE(Seen.count(Verb)) << Verb << " appears in no ground truth";
}

} // namespace
