//===- analysis/SpecMutants.cpp - Seeded-unsound spec mutants -------------===//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecMutants.h"

using namespace morpheus;

const char *morpheus::mutationKindName(MutationKind K) {
  switch (K) {
  case MutationKind::TightenCmp:
    return "tighten-cmp";
  case MutationKind::ShiftBound:
    return "shift-bound";
  case MutationKind::SwapInOut:
    return "swap-in-out";
  case MutationKind::SwapAttr:
    return "swap-attr";
  case MutationKind::MinMaxSwap:
    return "min-max-swap";
  case MutationKind::Vacuous:
    return "vacuous";
  case MutationKind::DropAtom:
    return "drop-atom";
  }
  return "unknown";
}

namespace {

/// Same kernel, gate and signature as the original, one spec level
/// rewritten.
class MutatedTransformer : public TableTransformer {
public:
  MutatedTransformer(const TableTransformer &Base, SpecLevel L, SpecFormula F)
      : TableTransformer(Base.name(), Base.numTableArgs(), Base.valueParams()),
        Base(Base) {
    setSpec(SpecLevel::Spec1, Base.spec(SpecLevel::Spec1));
    setSpec(SpecLevel::Spec2, Base.spec(SpecLevel::Spec2));
    setSpec(L, std::move(F));
  }

  std::optional<Table> apply(const std::vector<Table> &Tables,
                             const std::vector<TermPtr> &Args) const override {
    return Base.apply(Tables, Args);
  }

  bool mayYield(const std::vector<Table> &Tables,
                const std::vector<TermPtr> &Args,
                const Table &Want) const override {
    return Base.mayYield(Tables, Args, Want);
  }

private:
  const TableTransformer &Base;
};

// --- SpecExpr rewriters -------------------------------------------------

SpecExprPtr swapInOutExpr(const SpecExprPtr &E) {
  switch (E->K) {
  case SpecExpr::Kind::Const:
    return E;
  case SpecExpr::Kind::Attr:
    if (E->ArgIndex == 0)
      return SpecExpr::attr(-1, E->Attr);
    if (E->ArgIndex == -1)
      return SpecExpr::attr(0, E->Attr);
    return E;
  default:
    return SpecExpr::binary(E->K, swapInOutExpr(E->Lhs),
                            swapInOutExpr(E->Rhs));
  }
}

SpecExprPtr swapRowColExpr(const SpecExprPtr &E) {
  switch (E->K) {
  case SpecExpr::Kind::Const:
    return E;
  case SpecExpr::Kind::Attr:
    if (E->Attr == TableAttr::Row)
      return SpecExpr::attr(E->ArgIndex, TableAttr::Col);
    if (E->Attr == TableAttr::Col)
      return SpecExpr::attr(E->ArgIndex, TableAttr::Row);
    return E;
  default:
    return SpecExpr::binary(E->K, swapRowColExpr(E->Lhs),
                            swapRowColExpr(E->Rhs));
  }
}

SpecExprPtr swapMinMaxExpr(const SpecExprPtr &E) {
  switch (E->K) {
  case SpecExpr::Kind::Const:
  case SpecExpr::Kind::Attr:
    return E;
  case SpecExpr::Kind::Min:
    return SpecExpr::binary(SpecExpr::Kind::Max, swapMinMaxExpr(E->Lhs),
                            swapMinMaxExpr(E->Rhs));
  case SpecExpr::Kind::Max:
    return SpecExpr::binary(SpecExpr::Kind::Min, swapMinMaxExpr(E->Lhs),
                            swapMinMaxExpr(E->Rhs));
  default:
    return SpecExpr::binary(E->K, swapMinMaxExpr(E->Lhs),
                            swapMinMaxExpr(E->Rhs));
  }
}

bool exprHasMinMax(const SpecExprPtr &E) {
  switch (E->K) {
  case SpecExpr::Kind::Const:
  case SpecExpr::Kind::Attr:
    return false;
  case SpecExpr::Kind::Min:
  case SpecExpr::Kind::Max:
    return true;
  default:
    return exprHasMinMax(E->Lhs) || exprHasMinMax(E->Rhs);
  }
}

bool sameAtom(const SpecAtom &A, const SpecAtom &B) {
  return A.toString() == B.toString();
}

/// The mutated formula: \p F with atom \p Idx replaced by \p Repl.
SpecFormula withAtom(const SpecFormula &F, size_t Idx, SpecAtom Repl) {
  SpecFormula Out = F;
  Out.Atoms[Idx] = std::move(Repl);
  return Out;
}

struct CandidateMutation {
  MutationKind Kind;
  SpecFormula Formula;
  std::string What; ///< rewrite description for the mutant label
};

/// All group-free single-atom strengthenings of \p F. Group atoms are
/// excluded: the group attribute stays a free variable in every solver
/// check (per the paper it is never concretely known), so a one-sided
/// group mutation may remain satisfiable and is not certifiable.
std::vector<CandidateMutation> strengthenings(const SpecFormula &F) {
  std::vector<CandidateMutation> Out;
  for (size_t I = 0; I < F.Atoms.size(); ++I) {
    const SpecAtom &A = F.Atoms[I];
    if (mentionsGroup(A))
      continue;
    std::string Where = "atom " + std::to_string(I) + " `" + A.toString() +
                        "`";
    // Tighten the comparison.
    if (A.Op == SpecCmp::LE || A.Op == SpecCmp::GE || A.Op == SpecCmp::EQ) {
      SpecAtom M = A;
      M.Op = A.Op == SpecCmp::GE ? SpecCmp::GT : SpecCmp::LT;
      Out.push_back({MutationKind::TightenCmp, withAtom(F, I, M),
                     Where + " tightened to `" + M.toString() + "`"});
    }
    // Shift the bound by one (toward infeasibility).
    if (A.Op == SpecCmp::LE || A.Op == SpecCmp::LT) {
      SpecAtom M = A;
      M.Rhs = SpecExpr::binary(SpecExpr::Kind::Sub, A.Rhs,
                               SpecExpr::constant(1));
      Out.push_back({MutationKind::ShiftBound, withAtom(F, I, M),
                     Where + " bound shifted to `" + M.toString() + "`"});
    } else if (A.Op == SpecCmp::GE || A.Op == SpecCmp::GT ||
               A.Op == SpecCmp::EQ) {
      SpecAtom M = A;
      M.Rhs = SpecExpr::binary(SpecExpr::Kind::Add, A.Rhs,
                               SpecExpr::constant(1));
      Out.push_back({MutationKind::ShiftBound, withAtom(F, I, M),
                     Where + " bound shifted to `" + M.toString() + "`"});
    }
    // Swap result/argument placeholders (meaningless for symmetric EQ).
    if (A.Op != SpecCmp::EQ) {
      SpecAtom M{A.Op, swapInOutExpr(A.Lhs), swapInOutExpr(A.Rhs)};
      if (!sameAtom(M, A))
        Out.push_back({MutationKind::SwapInOut, withAtom(F, I, M),
                       Where + " placeholders swapped to `" + M.toString() +
                           "`"});
    }
    // Swap row and col attributes.
    {
      SpecAtom M{A.Op, swapRowColExpr(A.Lhs), swapRowColExpr(A.Rhs)};
      if (!sameAtom(M, A))
        Out.push_back({MutationKind::SwapAttr, withAtom(F, I, M),
                       Where + " row/col swapped to `" + M.toString() + "`"});
    }
    // Exchange min and max.
    if (exprHasMinMax(A.Lhs) || exprHasMinMax(A.Rhs)) {
      SpecAtom M{A.Op, swapMinMaxExpr(A.Lhs), swapMinMaxExpr(A.Rhs)};
      Out.push_back({MutationKind::MinMaxSwap, withAtom(F, I, M),
                     Where + " min/max swapped to `" + M.toString() + "`"});
    }
  }
  return Out;
}

/// A strengthening is certified unsound when some enumerated kernel run's
/// abstraction concretely violates the mutated formula. Mutated atoms are
/// group-free and every other attribute is concrete in the scenario, so a
/// concrete violation implies the linter's (group-free) solver query over
/// the same scenario is UNSAT: the mutant is guaranteed killable.
bool certifyUnsound(const SpecFormula &Mutated,
                    const std::vector<AbsScenario> &Scenarios) {
  SpecFormula GroupFree = groupFree(Mutated);
  for (const AbsScenario &S : Scenarios)
    if (!evalSpec(GroupFree, S.Inputs, S.Output))
      return true;
  return false;
}

} // namespace

std::vector<SpecMutant>
morpheus::generateSpecMutants(const TableTransformer &X,
                              const ComponentLibrary &Lib,
                              const LintOptions &Opts) {
  std::vector<SpecMutant> Out;
  std::vector<AbsScenario> Scenarios;
  bool ScenariosReady = false;
  auto scenarios = [&]() -> const std::vector<AbsScenario> & {
    if (!ScenariosReady) {
      Scenarios = enumerateAbsScenarios(X, Lib, Opts);
      ScenariosReady = true;
    }
    return Scenarios;
  };

  for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2}) {
    const SpecFormula &F = X.spec(L);
    std::string Tag =
        X.name() + "/" + (L == SpecLevel::Spec1 ? "spec1" : "spec2");

    // Vacuous: contradicts the domain axioms; caught by the
    // satisfiability check with no scenario needed.
    {
      SpecFormula V = F;
      V.Atoms.push_back({SpecCmp::LT, SpecExpr::attr(-1, TableAttr::Row),
                         SpecExpr::constant(0)});
      Out.push_back({MutationKind::Vacuous, L,
                     Tag + ": appended contradictory atom `y.row < 0`",
                     /*ExpectUnsound=*/true,
                     std::make_shared<MutatedTransformer>(X, L, std::move(V))});
    }

    if (F.isTrue())
      continue;

    // Negative control: dropping an atom weakens the over-approximation,
    // which is still sound — the linter must stay quiet.
    {
      SpecFormula D = F;
      D.Atoms.erase(D.Atoms.begin());
      Out.push_back({MutationKind::DropAtom, L,
                     Tag + ": dropped atom 0 `" + F.Atoms[0].toString() + "`",
                     /*ExpectUnsound=*/false,
                     std::make_shared<MutatedTransformer>(X, L, std::move(D))});
    }

    for (CandidateMutation &C : strengthenings(F)) {
      // Emit only mutants with a concrete evalSpec witness; an uncertified
      // strengthening may happen to remain a valid over-approximation
      // (e.g. swapping row/col in a component that preserves both).
      if (!certifyUnsound(C.Formula, scenarios()))
        continue;
      Out.push_back({C.Kind, L, Tag + ": " + C.What,
                     /*ExpectUnsound=*/true,
                     std::make_shared<MutatedTransformer>(
                         X, L, std::move(C.Formula))});
    }
  }
  return Out;
}

MutantSweepResult morpheus::sweepMutants(const ComponentLibrary &Lib,
                                         const LintOptions &Opts) {
  MutantSweepResult R;
  for (size_t I = 0; I < Lib.TableTransformers.size(); ++I) {
    const TableTransformer *X = Lib.TableTransformers[I];
    for (const SpecMutant &M : generateSpecMutants(*X, Lib, Opts)) {
      ++R.Total;
      ComponentLibrary MLib = Lib;
      MLib.TableTransformers[I] = M.Component.get();
      LintOptions MOpts = Opts;
      MOpts.Only = M.Component.get();
      MOpts.Pedantic = false;
      LintReport Report = lintLibrary(MLib, MOpts);
      bool Killed = Report.errorCount() > 0;
      if (M.ExpectUnsound) {
        ++R.ExpectedUnsound;
        if (Killed)
          ++R.Killed;
        else
          R.Survivors.push_back(M.Description);
      } else if (Killed) {
        R.FalseAlarms.push_back(M.Description);
      }
    }
  }
  return R;
}
