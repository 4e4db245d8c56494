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

#include <gtest/gtest.h>
#include <new>

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

/// Incremental sessions: two fills of one sketch shape reuse the pushed
/// shape scope (SessionHits), and spec templates compile once per
/// component/level and core, not once per call or per engine.
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
    // Same sketch shape, three predicate fills with distinct intermediate
    // row counts (3, 2, 1 rows; a keep-all cut would be rejected by the
    // filter kernel as a spec-excluded no-op) -> distinct queries sharing
    // one shape: one session build, two session reuses.
    for (double Cut : {6.0, 10.0, 15.0}) {
      HypPtr Sigma = filter(in(0), "age", ">", num(Cut));
      HypPtr Pi = Hypothesis::apply(
          Select, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
      E.deduce(Pi, SpecLevel::Spec2, true);
    }
    const DeduceStats &S = E.stats();
    EXPECT_EQ(S.SessionBuilds, 1u);
    EXPECT_EQ(S.SessionHits, 2u);
    EXPECT_GT(S.TemplateHits, 0u);
    // Scopes balance: every push has its pop except the still-open session.
    EXPECT_EQ(S.SolverPushes, S.SolverPops + 1);
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
}

/// Leased cores carry nothing from one engine to the next: an engine
/// destroyed with its shape session still open (the refuting Example 13
/// spread) must not change the verdict of the same hypothesis over an
/// example where it is satisfiable, nor the other way round, and the next
/// engine's scopes balance exactly as the first one's did.
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
  DeduceStats First;
  {
    DeductionEngine E({RefutedIn}, RefutedOut);
    EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
    First = E.stats();
  } // destroyed with the shape session open
  {
    DeductionEngine E({SatIn}, SatOut);
    EXPECT_TRUE(E.deduce(H, SpecLevel::Spec2, true));
    EXPECT_EQ(E.stats().SessionBuilds, 1u);
    EXPECT_EQ(First.SolverPushes, First.SolverPops + 1);
    EXPECT_EQ(E.stats().SolverPushes, E.stats().SolverPops + 1);
  }
  DeductionEngine E({RefutedIn}, RefutedOut);
  EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(E.stats().SolverChecks, 1u);
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

/// Cross-engine refutation sharing: a ⊥ verdict recorded by one engine
/// short-circuits a fresh engine over the same example — same verdict,
/// zero additional solver checks for that query.
TEST(DeduceSubstrate, StoreSharesRefutationsAcrossEngines) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  const TableTransformer *Spread = StandardComponents::get().find("spread");
  HypPtr H = Hypothesis::apply(
      Spread, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::ColName),
               Hypothesis::valueHole(ParamKind::ColName)});

  std::shared_ptr<const ExampleContext> Ex =
      ExampleContext::make({In}, Out);
  std::shared_ptr<RefutationStore> Store =
      std::make_shared<RefutationStore>();

  DeductionEngine A(Ex);
  A.setRefutationStore(Store);
  EXPECT_FALSE(A.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(A.stats().StoreInserts, 1u);
  EXPECT_EQ(Store->size(), 1u);

  DeductionEngine B(Ex);
  B.setRefutationStore(Store);
  EXPECT_FALSE(B.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(B.stats().StoreHits, 1u);
  EXPECT_EQ(B.stats().SolverChecks, 0u);

  // SAT verdicts are NOT stored: a fresh engine re-derives them.
  DeductionEngine C(Ex);
  C.setRefutationStore(Store);
  EXPECT_TRUE(C.deduce(H, SpecLevel::Spec1, true));
  EXPECT_EQ(C.stats().StoreHits, 0u);
  EXPECT_EQ(Store->size(), 1u);
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
