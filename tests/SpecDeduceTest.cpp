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
#include "smt/SpecCompiler.h"
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

/// The students table of Examples 10 and 12 (Figure 8's T1).
Table paperStudents() {
  return makeTable({{"id", CellType::Num},
                    {"name", CellType::Str},
                    {"age", CellType::Num},
                    {"GPA", CellType::Num}},
                   {{num(1), str("Alice"), num(8), num(4.0)},
                    {num(2), str("Bob"), num(18), num(3.2)},
                    {num(3), str("Tom"), num(12), num(3.0)}});
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
  Table In = paperStudents();
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
  Table In = paperStudents();
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

/// The verdict cache keys a hypothesis on its structure and the
/// abstractions of its evaluated subtrees: two inner tables that differ
/// only in their new-value count must not share a verdict.
TEST(Deduce, VerdictKeySeparatesAbstractionsDifferingInNewVals) {
  Table In = makeTable({{"a", CellType::Num}, {"b", CellType::Num}},
                       {{num(1), num(2)}, {num(3), num(4)}});
  // c = a + 10: the header c and the cells 11, 13 are new values.
  Table Out = makeTable({{"a", CellType::Num}, {"c", CellType::Num}},
                        {{num(1), num(11)}, {num(3), num(13)}});
  const StandardComponents &SC = StandardComponents::get();
  auto SelectOfMutate = [&](double Shift) {
    HypPtr M = Hypothesis::apply(
        SC.find("mutate"),
        {in(0), Hypothesis::filled(ParamKind::NewName, Term::nameLit("c")),
         Hypothesis::filled(ParamKind::NumExpr,
                            bin("+", col("a"), Term::constant(num(Shift))))});
    return Hypothesis::apply(
        SC.find("select"), {M, Hypothesis::valueHole(ParamKind::ColsOrdered)});
  };
  // Both mutates have 2 rows, 3 columns and one new column; a + 0 adds
  // one new value (the header), a + 10 three. select cannot add values.
  DeductionEngine E({In}, Out);
  EXPECT_FALSE(E.deduce(SelectOfMutate(0), SpecLevel::Spec2, true));
  EXPECT_TRUE(E.deduce(SelectOfMutate(10), SpecLevel::Spec2, true));
}

/// The root check: the root's abstraction is α(Tout), so a root whose
/// group-free spec fails against it for every binding of its table
/// arguments is refuted with no Z3 call, and the verdict is cached.
/// spread(?, ?, ?) over Example 1: the table hole is some input, which has
/// no new values, so spread cannot name four new columns (Spec 2). Spec 1
/// admits the root, and Z3 decides.
TEST(Deduce, RootCheckRefutesASizeOneHypothesisWithoutZ3) {
  HypPtr H =
      Hypothesis::applyWithHoles(StandardComponents::get().find("spread"));
  DeductionEngine E({paperExample1Input()}, paperExample1Output());
  EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(E.stats().SolverChecks, 0u);
  EXPECT_EQ(E.stats().FastPathRejections, 1u);
  EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(E.stats().CacheHits, 1u);
  EXPECT_TRUE(E.deduce(H, SpecLevel::Spec1, true));
  EXPECT_EQ(E.stats().SolverChecks, 1u);
  EXPECT_EQ(E.stats().FastPathRejections, 1u);
}

/// An Apply child with no table leaves the root check nothing to bind it
/// to, so the query reaches Z3, which refutes it: spread over an unfilled
/// filter of Example 1's input cannot name new columns either.
TEST(Deduce, RootCheckLeavesAnUnevaluatedApplyChildToZ3) {
  const StandardComponents &SC = StandardComponents::get();
  HypPtr Sigma = Hypothesis::apply(
      SC.find("filter"),
      {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::Pred)});
  HypPtr H = Hypothesis::apply(
      SC.find("spread"), {Sigma, Hypothesis::valueHole(ParamKind::ColName),
                          Hypothesis::valueHole(ParamKind::ColName)});
  DeductionEngine E({paperExample1Input()}, paperExample1Output());
  EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(E.stats().SolverChecks, 1u);
  EXPECT_EQ(E.stats().FastPathRejections, 0u);
}

/// The root check binds an evaluated child to its table's abstraction only
/// under partial evaluation, the one condition under which Z3's query
/// binds it too. Example 12's select(filter(x0, age > 12), ?): the one-row
/// filter cannot give the two-row output, refuted with no Z3 call; without
/// partial evaluation the filter is an Apply with no table, and Z3 admits
/// the hypothesis.
TEST(Deduce, RootCheckUsesAnEvaluatedChildOnlyUnderPartialEvaluation) {
  Table In = paperStudents();
  Table Out = makeTable({{"id", CellType::Num},
                         {"name", CellType::Str},
                         {"age", CellType::Num}},
                        {{num(2), str("Bob"), num(18)},
                         {num(3), str("Tom"), num(12)}});
  HypPtr Pi = Hypothesis::apply(
      StandardComponents::get().find("select"),
      {filter(in(0), "age", ">", num(12)),
       Hypothesis::valueHole(ParamKind::Cols)});
  DeductionEngine E({In}, Out);
  EXPECT_FALSE(E.deduce(Pi, SpecLevel::Spec2, true));
  EXPECT_EQ(E.stats().SolverChecks, 0u);
  EXPECT_EQ(E.stats().FastPathRejections, 1u);
  EXPECT_TRUE(E.deduce(Pi, SpecLevel::Spec2, false));
  EXPECT_EQ(E.stats().SolverChecks, 1u);
  EXPECT_EQ(E.stats().FastPathRejections, 1u);
}

/// Algorithm 2's query for a lone root, built from the spec encoder alone
/// in a scope of \p S: φX at \p Level over table arguments that are each
/// input Args[k]'s α (group 1) or, for Args[k] < 0, a hole under ϕin, with
/// the root bound to α(Tout) and its group free.
z3::check_result rootQuery(z3::solver &S, const ExampleContext &Ex,
                           const TableTransformer *X,
                           const std::vector<int> &Args, SpecLevel Level) {
  z3::context &Ctx = S.ctx();
  S.push();
  auto Vars = [&](const std::string &Name) {
    NodeVars N{Ctx.int_const((Name + "r").c_str()),
               Ctx.int_const((Name + "c").c_str()),
               Ctx.int_const((Name + "g").c_str()),
               Ctx.int_const((Name + "nc").c_str()),
               Ctx.int_const((Name + "nv").c_str())};
    S.add(nodeAxioms(N));
    return N;
  };
  auto Is = [&](const NodeVars &N, const AttrValues &A) {
    return N.Row == Ctx.int_val(int64_t(A.Row)) &&
           N.Col == Ctx.int_val(int64_t(A.Col)) &&
           N.NewCols == Ctx.int_val(int64_t(A.NewCols)) &&
           N.NewVals == Ctx.int_val(int64_t(A.NewVals));
  };
  std::vector<NodeVars> ArgVars;
  for (size_t K = 0; K != Args.size(); ++K) {
    NodeVars N = Vars("x" + std::to_string(K));
    if (Args[K] >= 0) {
      S.add(Is(N, Ex.InputAbs[size_t(Args[K])]) && N.Group == 1);
    } else {
      z3::expr_vector SomeInput(Ctx);
      for (const AttrValues &A : Ex.InputAbs)
        SomeInput.push_back(Is(N, {A.Row, A.Col, 1, 0, 0}) && N.Group == 1);
      S.add(z3::mk_or(SomeInput));
    }
    ArgVars.push_back(N);
  }
  NodeVars Y = Vars("y");
  S.add(Is(Y, Ex.OutputAbs));
  S.add(encodeSpec(Ctx, X->spec(Level), ArgVars, Y));
  z3::check_result Result = S.check();
  S.pop();
  return Result;
}

/// The root check is sound: wherever it refutes, the root's own Z3 query
/// is UNSAT. Every component of both libraries, each table argument a hole
/// or an input, at both levels, over every task example of both suites.
/// Partial evaluation is off, so nothing is evaluated and the root check
/// is the only fast path that can refute.
TEST(Deduce, RootCheckRefutesOnlyUnsatQueries) {
  const StandardComponents &Std = StandardComponents::get();
  std::vector<const TableTransformer *> Components;
  for (const ComponentLibrary &Lib : {Std.tidyDplyr(), Std.sqlRelevant()})
    for (const TableTransformer *X : Lib.TableTransformers)
      if (std::find(Components.begin(), Components.end(), X) ==
          Components.end())
        Components.push_back(X);
  size_t Refuted = 0, Admitted = 0;
  z3::context Ctx;
  z3::solver S(Ctx);
  for (const std::vector<BenchmarkTask> *Suite :
       {&morpheusSuite(), &sqlSuite()})
    for (const BenchmarkTask &T : *Suite) {
      std::shared_ptr<const ExampleContext> Ex =
          ExampleContext::make(T.Inputs, T.Output);
      DeductionEngine E(Ex);
      int Choices = int(T.Inputs.size()) + 1; // a hole, or one input
      for (const TableTransformer *X : Components) {
        int Combos = 1;
        for (unsigned K = 0; K != X->numTableArgs(); ++K)
          Combos *= Choices;
        for (int C = 0; C != Combos; ++C) {
          std::vector<int> Args;
          std::vector<HypPtr> Children;
          for (int Rest = C; Args.size() != X->numTableArgs();
               Rest /= Choices) {
            Args.push_back(Rest % Choices - 1);
            Children.push_back(Args.back() < 0
                                   ? Hypothesis::tblHole()
                                   : Hypothesis::input(size_t(Args.back())));
          }
          for (ParamKind PK : X->valueParams())
            Children.push_back(Hypothesis::valueHole(PK));
          HypPtr H = Hypothesis::apply(X, std::move(Children));
          for (SpecLevel Level : {SpecLevel::Spec1, SpecLevel::Spec2}) {
            uint64_t Before = E.stats().FastPathRejections;
            bool Verdict = E.deduce(H, Level, false);
            if (E.stats().FastPathRejections == Before) {
              Admitted += Verdict;
              continue;
            }
            ++Refuted;
            EXPECT_FALSE(Verdict);
            EXPECT_EQ(rootQuery(S, *Ex, X, Args, Level), z3::unsat)
                << T.Id << ": " << H->toString() << " at Spec"
                << (Level == SpecLevel::Spec1 ? 1 : 2);
          }
        }
      }
    }
  // The property is not vacuous: the check refutes, and admits, something.
  EXPECT_GT(Refuted, 0u);
  EXPECT_GT(Admitted, 0u);
}

/// Ground truth \p N with its input leaves turned table holes when
/// \p Refinement, and its first \p Fills values in post-order kept, every
/// later one a value hole.
HypPtr partialTruth(const HypPtr &N, bool Refinement, size_t &Fills) {
  if (N->isInput())
    return Refinement ? Hypothesis::tblHole() : N;
  std::vector<HypPtr> Children = N->children();
  for (HypPtr &C : Children)
    if (C->isTableTyped())
      C = partialTruth(C, Refinement, Fills);
  for (HypPtr &C : Children) {
    if (!C->isFilled())
      continue;
    if (Fills != 0)
      --Fills;
    else
      C = Hypothesis::valueHole(C->paramKind());
  }
  return Hypothesis::apply(N->component(), std::move(Children));
}

/// The hypotheses Algorithm 1 must admit to reach \p Truth, in order: the
/// refinement whose sketches include Truth's (line 8 gates them), Truth's
/// sketch, then each fill of its value holes in post-order (the bottom-up
/// order sketch completion fills them in), ending at \p Truth itself.
/// Earlier refinements are not on the list: a table hole there stands for
/// an application, and ϕin binds a hole to an input, so ψ may refute them,
/// which skips only their own sketches, never the refinements below them.
std::vector<HypPtr> groundTruthPath(const HypPtr &Truth) {
  size_t None = 0;
  std::vector<HypPtr> Path{partialTruth(Truth, true, None)};
  size_t Values = partialTruth(Truth, false, None)->numValueHoles();
  for (size_t K = 0; K <= Values; ++K) {
    size_t Fills = K;
    Path.push_back(partialTruth(Truth, false, Fills));
  }
  return Path;
}

/// DEDUCE is sound: on all 108 tasks, at either spec level, it admits
/// every hypothesis the search must pass to reach the ground truth: the
/// refinement, the sketch, every partial fill and the ground truth itself.
TEST(Deduce, NeverRefutesGroundTruth) {
  size_t Tasks = 0;
  for (const std::vector<BenchmarkTask> *Suite :
       {&morpheusSuite(), &sqlSuite()})
    for (const BenchmarkTask &T : *Suite) {
      ++Tasks;
      std::vector<HypPtr> Path = groundTruthPath(T.GroundTruth);
      ASSERT_EQ(Path.back()->toString(), T.GroundTruth->toString());
      DeductionEngine E(T.Inputs, T.Output);
      for (const HypPtr &H : Path)
        for (SpecLevel Level : {SpecLevel::Spec1, SpecLevel::Spec2})
          EXPECT_TRUE(E.deduce(H, Level, true))
              << T.Id << ": Spec" << (Level == SpecLevel::Spec1 ? 1 : 2)
              << " refuted " << H->toString();
    }
  EXPECT_EQ(Tasks, 108u);
}

/// Spec soundness: every node of every suite ground truth satisfies its
/// component's Spec 1 and Spec 2 when evaluated concretely — checked with
/// the direct (non-SMT) evaluator. Group atoms are skipped (the group
/// attribute is abstract; see spec/Abstraction.h).
class SpecSoundness : public ::testing::TestWithParam<size_t> {};

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
  const SpecFormula &NonGroup = H->component()->groupFreeSpec(Level);
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

/// select's kernel under the name `keep`, with the spec the test gives it.
class KeepWithSpec final : public TableTransformer {
public:
  explicit KeepWithSpec(SpecFormula F)
      : TableTransformer("keep", 1, {ParamKind::ColsOrdered}) {
    setSpec(SpecLevel::Spec1, F);
    setSpec(SpecLevel::Spec2, std::move(F));
  }
  std::optional<Table> apply(const std::vector<Table> &Tables,
                             const std::vector<TermPtr> &Args) const override {
    return StandardComponents::get().find("select")->apply(Tables, Args);
  }
};

/// Two components that share a name are still two components: one
/// engine's verdict cache must not answer the second's query with the
/// first's verdict. A's spec wrongly says keep adds columns, so it refutes
/// arrange(keep(filter(x0, ...), ?), ?) on an output narrower than the
/// input; B's spec admits it. keep has no table, so the root check cannot
/// bind arrange's argument and both queries reach Z3.
TEST(DeduceSubstrate, ComponentsSharingANameGetTheirOwnVerdicts) {
  using namespace morpheus::specdsl;
  KeepWithSpec A({{outA(TableAttr::Col) > inA(0, TableAttr::Col)}});
  KeepWithSpec B({{outA(TableAttr::Col) < inA(0, TableAttr::Col)}});
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num}},
                       {{num(1), str("Alice"), num(8)},
                        {num(2), str("Bob"), num(18)},
                        {num(3), str("Tom"), num(12)}});
  Table Out = makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                        {{str("Bob"), num(18)}});
  auto Keep = [](const TableTransformer *X) {
    HypPtr K = Hypothesis::apply(
        X, {filter(in(0), "age", ">", num(12)),
            Hypothesis::valueHole(ParamKind::ColsOrdered)});
    return Hypothesis::apply(
        StandardComponents::get().find("arrange"),
        {K, Hypothesis::valueHole(ParamKind::ColsOrdered)});
  };
  bool BAlone;
  {
    DeductionEngine E({In}, Out);
    BAlone = E.deduce(Keep(&B), SpecLevel::Spec2, true);
  }
  EXPECT_TRUE(BAlone);

  DeductionEngine E({In}, Out);
  EXPECT_FALSE(E.deduce(Keep(&A), SpecLevel::Spec2, true));
  EXPECT_EQ(E.deduce(Keep(&B), SpecLevel::Spec2, true), BAlone);
  EXPECT_EQ(E.stats().CacheHits, 0u);
  EXPECT_EQ(E.stats().SolverChecks, 2u);
}

/// Scope reuse: one engine pushes one example scope and every later query
/// of the same positions reuses it; a query that needs an instance the
/// core lacks costs one base visit, which pops and reopens the example
/// scope. A spec instance is encoded once per position, component, level
/// and core, not once per call or per engine.
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
  const TableTransformer *Arrange = StandardComponents::get().find("arrange");

  auto Run = [&](DeductionEngine &E) {
    // Three predicate fills with distinct intermediate row counts (3, 2, 1
    // rows; a keep-all cut would be rejected by the filter kernel as a
    // spec-excluded no-op): three distinct queries over the same
    // positions. The first opens the example scope, after a base visit
    // when the core lacks the instances; the other two reuse it. The
    // arrange root's child has no table, so the root check cannot decide
    // them and each reaches Z3.
    for (double Cut : {6.0, 10.0, 15.0}) {
      HypPtr Sigma = filter(in(0), "age", ">", num(Cut));
      HypPtr Pi = Hypothesis::apply(
          Select, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
      HypPtr Root = Hypothesis::apply(
          Arrange, {Pi, Hypothesis::valueHole(ParamKind::ColsOrdered)});
      E.deduce(Root, SpecLevel::Spec2, true);
    }
    const DeduceStats &S = E.stats();
    EXPECT_EQ(S.SolverChecks, 3u);
    EXPECT_EQ(S.SessionBuilds, 1u);
    EXPECT_EQ(S.SessionHits, 2u);
    // Each query pushes one scope for filter's concrete abstraction and
    // pops it; the example scope stays open.
    EXPECT_EQ(S.SolverPushes, 4u);
    EXPECT_EQ(S.SolverPops, 3u);
    return S.TemplateCompiles;
  };

  // Instances: arrange at the root, select and filter below it at Spec 2,
  // encoded at most once each per core — exactly 3 only when this engine
  // leased a cold core.
  {
    DeductionEngine E({In}, Out);
    EXPECT_LE(Run(E), 3u);
  }
  // The next engine on this thread leases the core the first one handed
  // back (the core is far from its lease limit), so every instance is
  // already there.
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
  // spread below an arrange root, which keeps the shape: spread has no
  // table, so the root check cannot bind arrange's argument and every
  // verdict comes from Z3.
  HypPtr H = Hypothesis::apply(
      StandardComponents::get().find("arrange"),
      {Hypothesis::apply(StandardComponents::get().find("spread"),
                         {Hypothesis::input(0),
                          Hypothesis::valueHole(ParamKind::ColName),
                          Hypothesis::valueHole(ParamKind::ColName)}),
       Hypothesis::valueHole(ParamKind::ColsOrdered)});
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

/// The evaluation stack releases only the innermost scope's tables: a
/// table evaluated in an outer scope keeps its address and contents while
/// an inner scope evaluates on top of it and is released. An input leaf
/// resolves to the example's own table.
TEST(DeduceSubstrate, OuterScopeTablesSurviveAnInnerRelease) {
  Table In = paperStudents();
  DeductionEngine E({In}, In);
  EXPECT_EQ(E.evaluateCached(in(0)), &E.exampleContext()->Inputs[0]);

  HypPtr Sigma = filter(in(0), "age", ">", num(10));
  std::optional<Table> Want = Sigma->evaluate({In});
  ASSERT_TRUE(Want);
  DeductionEngine::EvalScope Outer(E);
  const Table *T = E.evaluateCached(Sigma);
  ASSERT_NE(T, nullptr);
  {
    DeductionEngine::EvalScope Inner(E);
    HypPtr Pi = select(Sigma, {"name", "age"});
    HypPtr Young = filter(in(0), "age", "<", num(10));
    ASSERT_NE(E.evaluateCached(Pi), nullptr);
    ASSERT_NE(E.evaluateCached(Young), nullptr);
    EXPECT_EQ(E.evaluateCached(Pi)->numCols(), 2u);
    EXPECT_EQ(E.evaluateCached(Sigma), T);
    // A complete tree over Sigma deduces, reading Sigma from the stack.
    EXPECT_FALSE(E.deduce(Pi, SpecLevel::Spec2, true));
  }
  EXPECT_EQ(E.evaluateCached(Sigma), T);
  EXPECT_EQ(T->numRows(), 2u);
  EXPECT_TRUE(T->schema() == Want->schema());
  EXPECT_TRUE(T->equalsOrdered(*Want));
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
