//===- tests/SpecDeduceTest.cpp - Specs, α and DEDUCE --------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the abstraction function (Appendix A Example 13), the DEDUCE
/// procedure on the paper's worked Examples 10 and 12, and the key
/// *spec-soundness* property: every concrete component application
/// satisfies its own Spec 1 and Spec 2 formulas — the invariant the whole
/// pruning approach rests on.
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"
#include "smt/Deduce.h"
#include "suite/Task.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <new>
#include <thread>

using namespace morpheus;
using namespace morpheus::pb;

namespace {

Table paperExample1Input() {
  return makeTable({{"id", CellType::Num},
                    {"year", CellType::Num},
                    {"A", CellType::Num},
                    {"B", CellType::Num}},
                   {{num(1), num(2007), num(5), num(10)},
                    {num(2), num(2009), num(3), num(50)},
                    {num(1), num(2007), num(5), num(17)},
                    {num(2), num(2009), num(6), num(17)}});
}

Table paperExample1Output() {
  return makeTable({{"id", CellType::Num},
                    {"A_2007", CellType::Num},
                    {"B_2007", CellType::Num},
                    {"A_2009", CellType::Num},
                    {"B_2009", CellType::Num}},
                   {{num(1), num(5), num(10), num(5), num(17)},
                    {num(2), num(3), num(50), num(6), num(17)}});
}

/// Appendix A, Example 13: the abstraction of the Example 1 output has
/// newCols = newVals = 4 against the input's base sets.
TEST(Abstraction, PaperExample13) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  ExampleBase Base = ExampleBase::fromInputs({In});
  AttrValues InA = abstractTable(In, Base);
  EXPECT_EQ(InA.NewCols, 0);
  EXPECT_EQ(InA.NewVals, 0);
  EXPECT_EQ(InA.Row, 4);
  EXPECT_EQ(InA.Col, 4);
  AttrValues OutA = abstractTable(Out, Base);
  EXPECT_EQ(OutA.NewCols, 4);
  EXPECT_EQ(OutA.NewVals, 4);
  EXPECT_EQ(OutA.Row, 2);
  EXPECT_EQ(OutA.Col, 5);
}

/// Appendix A, Example 13 continued: the hypothesis spread(x0, ?, ?) is
/// satisfiable under Spec 1 but refuted under Spec 2 (the four new column
/// names cannot come from a table with no new values).
TEST(Deduce, PaperExample13SpreadRefutation) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  const TableTransformer *Spread = StandardComponents::get().find("spread");
  HypPtr H = Hypothesis::apply(
      Spread, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::ColName),
               Hypothesis::valueHole(ParamKind::ColName)});
  DeductionEngine E({In}, Out);
  EXPECT_TRUE(E.deduce(H, SpecLevel::Spec1, true));
  EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
}

/// Example 10: π(σ(x1)) cannot produce an output with as many columns as
/// the input, because select strictly drops columns.
TEST(Deduce, PaperExample10) {
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num},
                        {"GPA", CellType::Num}},
                       {{num(1), str("Alice"), num(8), num(4.0)},
                        {num(2), str("Bob"), num(18), num(3.2)},
                        {num(3), str("Tom"), num(12), num(3.0)}});
  // Output with the same number of columns as the input (Fig. 8's T2).
  Table Out(In.schema(), {In.row(1), In.row(2)});
  const TableTransformer *Select = StandardComponents::get().find("select");
  const TableTransformer *Filter = StandardComponents::get().find("filter");
  HypPtr Sigma = Hypothesis::apply(
      Filter, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::Pred)});
  HypPtr Pi = Hypothesis::apply(
      Select, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
  DeductionEngine E({In}, Out);
  EXPECT_FALSE(E.deduce(Pi, SpecLevel::Spec1, true));
}

/// Example 12: after filling σ's predicate with age > 12, partial
/// evaluation makes the intermediate table concrete (1 row) and the sketch
/// is refuted without filling the projection hole.
TEST(Deduce, PaperExample12PartialEvaluation) {
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num},
                        {"GPA", CellType::Num}},
                       {{num(1), str("Alice"), num(8), num(4.0)},
                        {num(2), str("Bob"), num(18), num(3.2)},
                        {num(3), str("Tom"), num(12), num(3.0)}});
  // Figure 15's T3: two rows, three columns.
  Table Out = makeTable({{"id", CellType::Num},
                         {"name", CellType::Str},
                         {"age", CellType::Num}},
                        {{num(2), str("Bob"), num(18)},
                         {num(3), str("Tom"), num(12)}});
  const TableTransformer *Select = StandardComponents::get().find("select");
  HypPtr Sigma = filter(in(0), "age", ">", num(12)); // the wrong predicate
  HypPtr Pi = Hypothesis::apply(
      Select, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
  DeductionEngine E({In}, Out);
  // With partial evaluation the filled sketch is refuted...
  EXPECT_FALSE(E.deduce(Pi, SpecLevel::Spec1, true));
  // ...without it, the specs alone cannot reject it.
  EXPECT_TRUE(E.deduce(Pi, SpecLevel::Spec1, false));
}

/// DEDUCE is sound: it never refutes the ground truth of a suite task.
TEST(Deduce, NeverRefutesGroundTruth) {
  for (const BenchmarkTask &T : morpheusSuite()) {
    DeductionEngine E(T.Inputs, T.Output);
    EXPECT_TRUE(E.deduce(T.GroundTruth, SpecLevel::Spec1, true))
        << "Spec1 refuted " << T.Id;
    EXPECT_TRUE(E.deduce(T.GroundTruth, SpecLevel::Spec2, true))
        << "Spec2 refuted " << T.Id;
  }
}

/// Spec soundness: every node of every suite ground truth satisfies its
/// component's Spec 1 and Spec 2 when evaluated concretely — checked with
/// the direct (non-SMT) evaluator. Group atoms are skipped (the group
/// attribute is abstract; see spec/Abstraction.h).
class SpecSoundness : public ::testing::TestWithParam<size_t> {};

bool mentionsGroup(const SpecExpr &E) {
  if (E.K == SpecExpr::Kind::Const)
    return false;
  if (E.K == SpecExpr::Kind::Attr)
    return E.Attr == TableAttr::Group;
  return mentionsGroup(*E.Lhs) || mentionsGroup(*E.Rhs);
}

void checkNode(const HypPtr &H, const std::vector<Table> &Inputs,
               const ExampleBase &Base, SpecLevel Level,
               const std::string &TaskId) {
  if (!H->isApply())
    return;
  for (const HypPtr &C : H->children())
    if (C->isTableTyped())
      checkNode(C, Inputs, Base, Level, TaskId);
  std::vector<AttrValues> Args;
  for (const HypPtr &C : H->children()) {
    if (!C->isTableTyped())
      continue;
    std::optional<Table> T = C->evaluate(Inputs);
    ASSERT_TRUE(T);
    Args.push_back(abstractTable(*T, Base));
  }
  std::optional<Table> Result = H->evaluate(Inputs);
  ASSERT_TRUE(Result);
  AttrValues Res = abstractTable(*Result, Base);
  SpecFormula NonGroup;
  for (const SpecAtom &A : H->component()->spec(Level).Atoms)
    if (!mentionsGroup(*A.Lhs) && !mentionsGroup(*A.Rhs))
      NonGroup.Atoms.push_back(A);
  EXPECT_TRUE(evalSpec(NonGroup, Args, Res))
      << TaskId << ": " << H->component()->name()
      << " violates: " << NonGroup.toString();
}

TEST_P(SpecSoundness, GroundTruthSatisfiesSpecs) {
  const BenchmarkTask &T = morpheusSuite()[GetParam()];
  ExampleBase Base = ExampleBase::fromInputs(T.Inputs);
  checkNode(T.GroundTruth, T.Inputs, Base, SpecLevel::Spec1, T.Id);
  checkNode(T.GroundTruth, T.Inputs, Base, SpecLevel::Spec2, T.Id);
}

INSTANTIATE_TEST_SUITE_P(AllTasks, SpecSoundness,
                         ::testing::Range(size_t(0), size_t(80)));

/// Sketch-shape hashing: stable across value-hole filling (a fill maps to
/// its sketch's shape — the property incremental sessions and the
/// refutation store key on), sensitive to components and input indices.
TEST(ShapeHash, FillInvariantAndStructureSensitive) {
  const TableTransformer *Filter = StandardComponents::get().find("filter");
  const TableTransformer *Select = StandardComponents::get().find("select");

  HypPtr Hole = Hypothesis::apply(
      Filter, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::Pred)});
  HypPtr Filled = filter(in(0), "age", ">", num(12));
  EXPECT_EQ(Hole->shapeHash(), Filled->shapeHash());

  HypPtr OtherInput = Hypothesis::apply(
      Filter, {Hypothesis::input(1), Hypothesis::valueHole(ParamKind::Pred)});
  EXPECT_NE(Hole->shapeHash(), OtherInput->shapeHash());

  HypPtr OtherComp = Hypothesis::apply(
      Select, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::Cols)});
  EXPECT_NE(Hole->shapeHash(), OtherComp->shapeHash());

  HypPtr TblHole = Hypothesis::apply(
      Filter, {Hypothesis::tblHole(), Hypothesis::valueHole(ParamKind::Pred)});
  EXPECT_NE(Hole->shapeHash(), TblHole->shapeHash());

  // Deterministic across structurally equal trees built independently.
  EXPECT_EQ(filter(in(0), "age", ">", num(12))->shapeHash(),
            filter(in(0), "GPA", ">", num(3))->shapeHash());
}

/// A component whose only spec is supplied by the test. apply() is never
/// reached: the value hole keeps every hypothesis incomplete.
class SpecOnlyComponent final : public TableTransformer {
public:
  explicit SpecOnlyComponent(SpecFormula F)
      : TableTransformer("spec_only", 1, {ParamKind::ColName}) {
    setSpec(SpecLevel::Spec1, F);
    setSpec(SpecLevel::Spec2, std::move(F));
  }
  std::optional<Table> apply(const std::vector<Table> &,
                             const std::vector<TermPtr> &) const override {
    return std::nullopt;
  }
};

/// Scope reuse: one engine pushes one example scope and every later query
/// of the same positions reuses it; a query that needs an instance the
/// core lacks costs one base visit, which pops and reopens the example
/// scope. Spec templates compile once per component/level and core, not
/// once per call or per engine.
TEST(DeduceSubstrate, SessionAndTemplateReuse) {
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num}},
                       {{num(1), str("Alice"), num(8)},
                        {num(2), str("Bob"), num(18)},
                        {num(3), str("Tom"), num(12)},
                        {num(4), str("Eve"), num(5)}});
  Table Out = makeTable({{"id", CellType::Num}, {"name", CellType::Str}},
                        {{num(2), str("Bob")}});
  const TableTransformer *Select = StandardComponents::get().find("select");

  auto Run = [&](DeductionEngine &E) {
    // Three predicate fills with distinct intermediate row counts (3, 2, 1
    // rows; a keep-all cut would be rejected by the filter kernel as a
    // spec-excluded no-op): three distinct queries over the same
    // positions. The first opens the example scope, after a base visit
    // when the core lacks the instances; the other two reuse it.
    for (double Cut : {6.0, 10.0, 15.0}) {
      HypPtr Sigma = filter(in(0), "age", ">", num(Cut));
      HypPtr Pi = Hypothesis::apply(
          Select, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
      E.deduce(Pi, SpecLevel::Spec2, true);
    }
    const DeduceStats &S = E.stats();
    EXPECT_EQ(S.SolverChecks, 3u);
    EXPECT_EQ(S.SessionBuilds, 1u);
    EXPECT_EQ(S.SessionHits, 2u);
    EXPECT_GT(S.TemplateHits, 0u);
    // Each query pushes one scope for filter's concrete abstraction and
    // pops it; the example scope stays open.
    EXPECT_EQ(S.SolverPushes, 4u);
    EXPECT_EQ(S.SolverPops, 3u);
    return S.TemplateCompiles;
  };

  // Templates: filter + select at both levels, compiled at most once each
  // per core — exactly 4 only when this engine leased a cold core.
  {
    DeductionEngine E({In}, Out);
    EXPECT_LE(Run(E), 4u);
  }
  // The next engine on this thread leases the core the first one handed
  // back (the core is far from its lease limit), so every template is
  // already compiled.
  DeductionEngine E({In}, Out);
  EXPECT_EQ(Run(E), 0u);

  // A component no core has seen misses at the root: one base visit pops
  // the example scope, asserts the instance and reopens the scope.
  using namespace morpheus::specdsl;
  SpecOnlyComponent Fresh({{outA(TableAttr::Row) <= inA(0, TableAttr::Row)}});
  EXPECT_TRUE(E.deduce(
      Hypothesis::apply(&Fresh, {Hypothesis::input(0),
                                 Hypothesis::valueHole(ParamKind::ColName)}),
      SpecLevel::Spec2, true));
  EXPECT_EQ(E.stats().SessionBuilds, 2u);
  EXPECT_EQ(E.stats().SessionHits, 2u);
  EXPECT_EQ(E.stats().SolverPushes, 5u);
  EXPECT_EQ(E.stats().SolverPops, 4u);
}

/// Leased cores carry no example from one engine to the next: an engine
/// destroyed with its example scope still open (the refuting Example 13
/// spread) must not change the verdict of the same hypothesis over an
/// example where it is satisfiable, nor the other way round. Each engine
/// pushes its own example scope and leaves it open.
TEST(DeduceSubstrate, NoStateLeaksBetweenLeases) {
  Table RefutedIn = paperExample1Input();
  Table RefutedOut = paperExample1Output();
  // A long table that spread(x0, key, val) turns wide: the hypothesis is
  // satisfiable over this example.
  Table SatIn = makeTable({{"id", CellType::Num},
                           {"key", CellType::Str},
                           {"val", CellType::Num}},
                          {{num(1), str("A"), num(5)},
                           {num(1), str("B"), num(10)},
                           {num(2), str("A"), num(3)},
                           {num(2), str("B"), num(50)}});
  Table SatOut = *spread(in(0), "key", "val")->evaluate({SatIn});
  HypPtr H = Hypothesis::apply(
      StandardComponents::get().find("spread"),
      {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::ColName),
       Hypothesis::valueHole(ParamKind::ColName)});
  // No subtree evaluates, so no query scope: the one push is the example
  // scope's, and nothing is popped before the engine goes.
  auto ExampleScopeOnly = [](const DeduceStats &S) {
    EXPECT_EQ(S.SessionBuilds, 1u);
    EXPECT_EQ(S.SolverPushes, 1u);
    EXPECT_EQ(S.SolverPops, 0u);
  };
  {
    DeductionEngine E({RefutedIn}, RefutedOut);
    EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
    ExampleScopeOnly(E.stats());
  } // destroyed with the example scope open
  {
    DeductionEngine E({SatIn}, SatOut);
    EXPECT_TRUE(E.deduce(H, SpecLevel::Spec2, true));
    ExampleScopeOnly(E.stats());
  }
  DeductionEngine E({RefutedIn}, RefutedOut);
  EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(E.stats().SolverChecks, 1u);
  ExampleScopeOnly(E.stats());
}

/// Guarded instances stay in a core across solves, and a base visit
/// asserts every library component at a position, so a core carries many
/// instances no query switches on. None of them may change a verdict: the
/// one- and two-component hypotheses of the tidy library and their
/// sketches, deduced at both levels over two examples, get the same
/// verdicts on cold cores, on a core the SQL library warmed first, and on
/// a cold core that runs everything in reverse order.
TEST(DeduceSubstrate, VerdictsIndependentOfCoreWarmth) {
  const StandardComponents &Std = StandardComponents::get();
  ComponentLibrary Tidy = Std.tidyDplyr(), Sql = Std.sqlRelevant();
  auto Hypotheses = [](const ComponentLibrary &Lib) {
    std::vector<HypPtr> Hyps;
    for (const TableTransformer *X : Lib.TableTransformers) {
      HypPtr One = Hypothesis::applyWithHoles(X);
      Hyps.push_back(One);
      for (const TableTransformer *Y : Lib.TableTransformers)
        Hyps.push_back(
            One->replaceLeftmostTblHole(Hypothesis::applyWithHoles(Y)));
    }
    for (size_t I = 0, N = Hyps.size(); I != N; ++I)
      for (HypPtr &S : Hyps[I]->sketches(1))
        Hyps.push_back(std::move(S));
    return Hyps;
  };
  std::vector<HypPtr> TidyHyps = Hypotheses(Tidy), SqlHyps = Hypotheses(Sql);

  // Example 1 (long to wide, refutes spread under Spec 2) and a wide to
  // long example.
  std::shared_ptr<const ExampleContext> Wide =
      ExampleContext::make({paperExample1Input()}, paperExample1Output());
  std::shared_ptr<const ExampleContext> Long = ExampleContext::make(
      {paperExample1Input()},
      *gather(in(0), "key", "val", {"A", "B"})->evaluate(
          {paperExample1Input()}));

  using Verdicts = std::vector<bool>;
  // One engine over \p Ex deducing \p Hyps in the given order; verdicts
  // come back in \p Hyps order, Spec 1 then Spec 2 for each.
  auto Deduce = [](DeductionEngine &E, const std::vector<HypPtr> &Hyps,
                   bool Reverse) {
    Verdicts V(2 * Hyps.size());
    for (size_t K = 0; K != Hyps.size(); ++K) {
      size_t I = Reverse ? Hyps.size() - 1 - K : K;
      V[2 * I] = E.deduce(Hyps[I], SpecLevel::Spec1, true);
      V[2 * I + 1] = E.deduce(Hyps[I], SpecLevel::Spec2, true);
    }
    return V;
  };
  auto Run = [&](const std::shared_ptr<const ExampleContext> &Ex,
                 const ComponentLibrary &Lib,
                 const std::vector<HypPtr> &Hyps, bool Reverse) {
    DeductionEngine E(Ex);
    E.setLibrary(Lib.TableTransformers);
    return Deduce(E, Hyps, Reverse);
  };

  // Hold one engine per idle core the pool may keep, so that no idle core
  // is left: every engine created while the list is empty leases a cold
  // core, and an engine created after one was handed back leases that.
  std::vector<std::unique_ptr<DeductionEngine>> Held;
  for (unsigned I = 0; I < std::max(1u, std::thread::hardware_concurrency());
       ++I)
    Held.push_back(std::make_unique<DeductionEngine>(Wide));
  auto ColdEngine = [&](const std::shared_ptr<const ExampleContext> &Ex) {
    auto E = std::make_unique<DeductionEngine>(Ex);
    E->setLibrary(Tidy.TableTransformers);
    return E;
  };

  // Cold: each example on a core of its own.
  Verdicts WideCold, LongCold;
  {
    std::unique_ptr<DeductionEngine> A = ColdEngine(Wide);
    std::unique_ptr<DeductionEngine> B = ColdEngine(Long);
    WideCold = Deduce(*A, TidyHyps, false);
    LongCold = Deduce(*B, TidyHyps, false);
    EXPECT_GT(A->stats().TemplateCompiles, 0u);
    EXPECT_GT(B->stats().TemplateCompiles, 0u);
    Held.push_back(std::move(A)); // keep both cores out of the pool
    Held.push_back(std::move(B));
  }
  // The verdicts discriminate: both examples refute and admit something,
  // and not the same hypotheses.
  EXPECT_NE(std::count(WideCold.begin(), WideCold.end(), false), 0);
  EXPECT_NE(std::count(WideCold.begin(), WideCold.end(), true), 0);
  EXPECT_NE(WideCold, LongCold);

  // Warmed by the SQL library first, on another thread, then both
  // examples on that core: it reaches this thread through the pool with
  // its base scope full.
  Verdicts SqlFirst;
  std::thread([&] {
    std::unique_ptr<DeductionEngine> S = ColdEngine(Wide);
    S->setLibrary(Sql.TableTransformers);
    SqlFirst = Deduce(*S, SqlHyps, false);
  }).join(); // its core is now the only idle one; every Run below leases it
  EXPECT_EQ(Run(Wide, Tidy, TidyHyps, false), WideCold);
  EXPECT_EQ(Run(Long, Tidy, TidyHyps, false), LongCold);

  // In reverse: a cold core, the examples and hypotheses in reverse
  // order, the SQL library last.
  Held.push_back(std::make_unique<DeductionEngine>(Wide)); // takes it back
  EXPECT_EQ(Run(Long, Tidy, TidyHyps, true), LongCold);
  EXPECT_EQ(Run(Wide, Tidy, TidyHyps, true), WideCold);
  EXPECT_EQ(Run(Wide, Sql, SqlHyps, true), SqlFirst);
}

/// Compiled templates outlive the engine that compiled them, so they must
/// not be keyed on the component's address: a component built where a
/// freed one lived, with a contradicting spec, must get its own template.
TEST(DeduceSubstrate, SpecIdSurvivesAddressReuse) {
  using namespace morpheus::specdsl;
  Table In = makeTable({{"a", CellType::Num}},
                       {{num(1)}, {num(2)}, {num(3)}});
  alignas(SpecOnlyComponent) unsigned char Storage[sizeof(SpecOnlyComponent)];
  auto Deduce = [&](SpecFormula F) {
    auto *X = new (Storage) SpecOnlyComponent(std::move(F));
    HypPtr H = Hypothesis::apply(
        X, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::ColName)});
    bool Verdict;
    {
      DeductionEngine E({In}, In);
      Verdict = E.deduce(H, SpecLevel::Spec2, true);
    }
    H.reset();
    X->~SpecOnlyComponent();
    return Verdict;
  };
  // Output rows == input rows: satisfiable over a 3-row -> 3-row example.
  EXPECT_TRUE(Deduce({{outA(TableAttr::Row) == inA(0, TableAttr::Row)}}));
  // Same address, output rows > input rows: refuted.
  EXPECT_FALSE(Deduce({{outA(TableAttr::Row) > inA(0, TableAttr::Row)}}));
}

/// The shared ExampleContext carries the same abstractions the engine
/// used to compute privately (Appendix A pinning included).
TEST(DeduceSubstrate, ExampleContextMatchesDirectAbstraction) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  std::shared_ptr<const ExampleContext> Ex = ExampleContext::make({In}, Out);
  ExampleBase Base = ExampleBase::fromInputs({In});
  AttrValues Direct = abstractTable(Out, Base);
  EXPECT_EQ(Ex->OutputAbs.Row, Direct.Row);
  EXPECT_EQ(Ex->OutputAbs.NewCols, Direct.NewCols);
  ASSERT_EQ(Ex->InputAbs.size(), 1u);
  EXPECT_EQ(Ex->InputAbs[0].Group, 1);
  EXPECT_EQ(Ex->Fingerprint, exampleFingerprint({In}, Out));
  EXPECT_NE(Ex->Fingerprint, exampleFingerprint({Out}, In));
}

/// The spec DSL evaluator agrees with hand-computed arithmetic.
TEST(SpecDsl, EvaluatorAndPrinting) {
  using namespace morpheus::specdsl;
  SpecFormula F{{outA(TableAttr::Row) <= inA(0, TableAttr::Row),
                 outA(TableAttr::Col) ==
                     smax(inA(0, TableAttr::Col), lit(3))}};
  AttrValues In{10, 4, 1, 0, 0};
  EXPECT_TRUE(evalSpec(F, {In}, AttrValues{5, 4, 1, 0, 0}));
  EXPECT_FALSE(evalSpec(F, {In}, AttrValues{11, 4, 1, 0, 0}));
  EXPECT_FALSE(evalSpec(F, {In}, AttrValues{5, 5, 1, 0, 0}));
  EXPECT_NE(F.toString().find("Tout.row <= Tin1.row"), std::string::npos);
}

} // namespace
