//===- tests/AnalysisTest.cpp - Spec-soundness linter tests ---------------===//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// The linter guards the soundness-critical data of the whole system (the
// specs DEDUCE prunes with), so it gets the mutation-testing treatment:
// the standard library must lint clean, and a sweep of seeded-unsound
// spec mutants — certified unsound by concrete evaluation, a Z3-free
// code path — must every one be flagged, while the sound DropAtom
// controls must not be.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecLint.h"
#include "analysis/SpecMutants.h"
#include "interp/Components.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace morpheus;

namespace {

/// The full 12-component library (tidyr/dplyr plus distinct) with the
/// standard value transformers.
ComponentLibrary fullLibrary() {
  const StandardComponents &SC = StandardComponents::get();
  ComponentLibrary Lib = SC.tidyDplyr();
  for (const TableTransformer *X : SC.all())
    if (!Lib.findTable(X->name()))
      Lib.TableTransformers.push_back(X);
  return Lib;
}

TEST(SpecLint, StandardLibraryLintsClean) {
  LintOptions Opts;
  Opts.Pedantic = true; // every component must actually be exercised
  LintReport R = lintLibrary(fullLibrary(), Opts);
  for (const LintIssue &I : R.Issues)
    ADD_FAILURE() << I.Component << "/" << lintKindName(I.Kind) << ": "
                  << I.Message;
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Stats.Components, 12u);
  EXPECT_GT(R.Stats.SatChecks, 0u);
  EXPECT_GT(R.Stats.Scenarios, 0u);
  EXPECT_GT(R.Stats.ChainScenarios, 0u);
  EXPECT_GT(R.Stats.SoundnessChecks, 0u);
  // Every accepted run, depth-1 and chained, also tested the gate.
  EXPECT_EQ(R.Stats.GateChecks, R.Stats.Scenarios + R.Stats.ChainScenarios);
}

TEST(SpecLint, SqlLibraryLintsClean) {
  LintReport R = lintLibrary(StandardComponents::get().sqlRelevant());
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Stats.Components, 8u);
  EXPECT_GT(R.Stats.GateChecks, 0u);
}

/// select's kernel under a header gate that wrongly insists the output
/// drops a row, with the trivial spec: the gate check must run anyway.
class TightGateSelect : public TableTransformer {
public:
  TightGateSelect()
      : TableTransformer("tight_select", 1, {ParamKind::ColsOrdered}) {}

  std::optional<Table> apply(const std::vector<Table> &Tables,
                             const std::vector<TermPtr> &Args) const override {
    return StandardComponents::get().find("select")->apply(Tables, Args);
  }

  bool mayYield(const std::vector<Table> &Tables, const std::vector<TermPtr> &,
                const Table &Want) const override {
    return Want.numRows() < Tables[0].numRows();
  }
};

TEST(SpecLint, TooTightGateIsFlagged) {
  TightGateSelect X;
  ComponentLibrary Lib = fullLibrary();
  Lib.TableTransformers.push_back(&X);
  LintOptions Opts;
  Opts.Only = &X;
  LintReport R = lintLibrary(Lib, Opts);
  ASSERT_FALSE(R.clean());
  unsigned Flagged = 0;
  for (const LintIssue &I : R.Issues) {
    EXPECT_EQ(I.Component, "tight_select");
    Flagged += I.Kind == LintKind::GateRejectsOutput && I.IsError;
  }
  EXPECT_EQ(Flagged, 1u); // one issue per component, not per scenario
  EXPECT_NE(reportToJson(R).find("gate-rejects-output"), std::string::npos);
}

TEST(SpecLint, CleanReportJsonShape) {
  LintOptions Opts;
  Opts.Soundness = false; // keep this test about the serialization
  std::string J = reportToJson(lintLibrary(fullLibrary(), Opts));
  EXPECT_NE(J.find("\"tool\":\"morpheus-analyze\""), std::string::npos);
  EXPECT_NE(J.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(J.find("\"issues\":[]"), std::string::npos);
}

/// Replaces \p X (by position) with \p Mutant in a copy of \p Lib.
ComponentLibrary withReplacement(const ComponentLibrary &Lib,
                                 const TableTransformer *X,
                                 const TableTransformer *Mutant) {
  ComponentLibrary Out = Lib;
  for (const TableTransformer *&T : Out.TableTransformers)
    if (T == X)
      T = Mutant;
  return Out;
}

TEST(SpecMutants, VacuousSpecIsFlaggedAsUnsat) {
  ComponentLibrary Lib = fullLibrary();
  const TableTransformer *Filter = Lib.findTable("filter");
  ASSERT_NE(Filter, nullptr);
  std::vector<SpecMutant> Mutants = generateSpecMutants(*Filter, Lib);
  auto It = std::find_if(Mutants.begin(), Mutants.end(),
                         [](const SpecMutant &M) {
                           return M.Kind == MutationKind::Vacuous;
                         });
  ASSERT_NE(It, Mutants.end());
  EXPECT_TRUE(It->ExpectUnsound);

  LintOptions Opts;
  Opts.Only = It->Component.get();
  LintReport R =
      lintLibrary(withReplacement(Lib, Filter, It->Component.get()), Opts);
  ASSERT_FALSE(R.clean());
  bool SawUnsat = false;
  for (const LintIssue &I : R.Issues)
    SawUnsat |= I.Kind == LintKind::UnsatSpec && I.Component == "filter";
  EXPECT_TRUE(SawUnsat);
  // The unsat core must name the seeded contradiction.
  std::string J = reportToJson(R);
  EXPECT_NE(J.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(J.find("unsat-spec"), std::string::npos);
}

TEST(SpecMutants, TightenedSpecIsFlaggedAsUnsound) {
  ComponentLibrary Lib = fullLibrary();
  const TableTransformer *Select = Lib.findTable("select");
  ASSERT_NE(Select, nullptr);
  std::vector<SpecMutant> Mutants = generateSpecMutants(*Select, Lib);
  auto It = std::find_if(Mutants.begin(), Mutants.end(),
                         [](const SpecMutant &M) {
                           return M.Kind == MutationKind::TightenCmp &&
                                  M.ExpectUnsound;
                         });
  ASSERT_NE(It, Mutants.end());
  LintOptions Opts;
  Opts.Only = It->Component.get();
  LintReport R =
      lintLibrary(withReplacement(Lib, Select, It->Component.get()), Opts);
  ASSERT_FALSE(R.clean());
  bool SawUnsound = false;
  for (const LintIssue &I : R.Issues)
    SawUnsound |= I.Kind == LintKind::UnsoundSpec;
  EXPECT_TRUE(SawUnsound);
}

TEST(SpecMutants, SweepKillsEveryCertifiedMutantAndSparesControls) {
  MutantSweepResult R = sweepMutants(fullLibrary());
  EXPECT_GT(R.Total, 100u);
  EXPECT_GT(R.ExpectedUnsound, 0u);
  EXPECT_EQ(R.Killed, R.ExpectedUnsound);
  for (const std::string &S : R.Survivors)
    ADD_FAILURE() << "survived: " << S;
  for (const std::string &S : R.FalseAlarms)
    ADD_FAILURE() << "false alarm: " << S;
  EXPECT_TRUE(R.ok());
}

TEST(SpecMutants, TaxonomyCoversTheSeededKinds) {
  ComponentLibrary Lib = fullLibrary();
  std::set<MutationKind> Seen;
  bool SawSoundControl = false;
  for (const TableTransformer *X : Lib.TableTransformers)
    for (const SpecMutant &M : generateSpecMutants(*X, Lib)) {
      Seen.insert(M.Kind);
      SawSoundControl |= !M.ExpectUnsound;
    }
  EXPECT_TRUE(Seen.count(MutationKind::TightenCmp));
  EXPECT_TRUE(Seen.count(MutationKind::ShiftBound));
  EXPECT_TRUE(Seen.count(MutationKind::SwapInOut));
  EXPECT_TRUE(Seen.count(MutationKind::SwapAttr));
  EXPECT_TRUE(Seen.count(MutationKind::Vacuous));
  EXPECT_TRUE(Seen.count(MutationKind::DropAtom));
  EXPECT_TRUE(SawSoundControl);
}

/// A synthetic component keeping only the first input row, specified with
/// min/max so the MinMaxSwap mutation (absent from the standard specs
/// since inner_join's unsound min/max row bracket was removed) stays
/// covered end to end.
class HeadOne : public TableTransformer {
public:
  HeadOne() : TableTransformer("head_one", 1, {}) {
    using namespace specdsl;
    SpecFormula F{{outA(TableAttr::Row) ==
                       smin(inA(0, TableAttr::Row), lit(1)),
                   outA(TableAttr::Col) == inA(0, TableAttr::Col)}};
    setSpec(SpecLevel::Spec1, F);
    setSpec(SpecLevel::Spec2, std::move(F));
  }

  std::optional<Table> apply(const std::vector<Table> &Tables,
                             const std::vector<TermPtr> &) const override {
    const Table &In = Tables[0];
    if (In.numRows() == 0)
      return std::nullopt;
    std::vector<Column> Cols;
    for (size_t C = 0; C < In.numCols(); ++C)
      Cols.push_back(In.schema()[C]);
    Row First;
    for (size_t C = 0; C < In.numCols(); ++C)
      First.push_back(In.at(0, C));
    return makeTable(std::move(Cols), {std::move(First)});
  }
};

TEST(SpecMutants, MinMaxSwapIsCertifiedAndKilled) {
  HeadOne X;
  ComponentLibrary Lib = fullLibrary();
  Lib.TableTransformers.push_back(&X);

  LintOptions Opts;
  Opts.Only = &X;
  EXPECT_TRUE(lintLibrary(Lib, Opts).clean()); // the original spec is sound

  std::vector<SpecMutant> Mutants = generateSpecMutants(X, Lib);
  auto It = std::find_if(Mutants.begin(), Mutants.end(),
                         [](const SpecMutant &M) {
                           return M.Kind == MutationKind::MinMaxSwap;
                         });
  ASSERT_NE(It, Mutants.end()) << "min/max strengthening not certified";
  EXPECT_TRUE(It->ExpectUnsound);
  LintOptions MOpts;
  MOpts.Only = It->Component.get();
  LintReport R =
      lintLibrary(withReplacement(Lib, &X, It->Component.get()), MOpts);
  EXPECT_FALSE(R.clean());
}

} // namespace
