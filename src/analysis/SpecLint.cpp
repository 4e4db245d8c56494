//===- analysis/SpecLint.cpp - SMT spec-soundness linter ------------------===//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecLint.h"

#include "analysis/TableEnum.h"
#include "smt/SpecCompiler.h"
#include "spec/Abstraction.h"
#include "synth/Inhabitation.h"

#include <cstdio>
#include <sstream>
#include <unordered_set>

using namespace morpheus;

const char *morpheus::lintKindName(LintKind K) {
  switch (K) {
  case LintKind::UnsatSpec:
    return "unsat-spec";
  case LintKind::UnsatOnInputs:
    return "unsat-on-inputs";
  case LintKind::NonRefinement:
    return "non-refinement";
  case LintKind::UnsoundSpec:
    return "unsound-spec";
  case LintKind::NoScenario:
    return "no-scenario";
  case LintKind::GateRejectsOutput:
    return "gate-rejects-output";
  }
  return "unknown";
}

unsigned LintReport::errorCount() const {
  unsigned N = 0;
  for (const LintIssue &I : Issues)
    N += I.IsError ? 1 : 0;
  return N;
}

unsigned LintReport::warningCount() const {
  return unsigned(Issues.size()) - errorCount();
}

namespace {

const char *levelName(SpecLevel L) {
  return L == SpecLevel::Spec1 ? "spec1" : "spec2";
}

/// FNV-1a fold for the scenario dedup signature.
struct SigHash {
  uint64_t H = 1469598103934665603ull;
  void add(uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  }
  void addAttrs(const AttrValues &A) {
    add(uint64_t(A.Row));
    add(uint64_t(A.Col));
    add(uint64_t(A.NewCols));
    add(uint64_t(A.NewVals));
  }
};

std::string describeAttrs(const AttrValues &A, bool GroupKnown) {
  std::ostringstream OS;
  OS << "row=" << A.Row << " col=" << A.Col;
  if (GroupKnown)
    OS << " group=" << A.Group;
  else
    OS << " group=free";
  OS << " newCols=" << A.NewCols << " newVals=" << A.NewVals;
  return OS.str();
}

/// Enumerates up to \p MaxTerms inhabitants of each value hole of \p X
/// against \p Tables (the hole's child tables double as the output
/// stand-in, so NewName holes draw existing headers plus a fresh name).
/// Returns false when some hole has no inhabitant.
bool enumHoles(const Inhabitation &Inhab, const TableTransformer &X,
               const std::vector<Table> &Tables, size_t MaxTerms,
               std::vector<std::vector<TermPtr>> &PerHole) {
  const std::vector<ParamKind> &Kinds = X.valueParams();
  PerHole.assign(Kinds.size(), {});
  for (size_t H = 0; H < Kinds.size(); ++H) {
    std::vector<TermPtr> &Terms = PerHole[H];
    Inhab.enumerate(Kinds[H], Tables, Tables[0], unsigned(H), [&](TermPtr T) {
      Terms.push_back(std::move(T));
      return Terms.size() < MaxTerms;
    });
    if (Terms.empty())
      return false;
  }
  return true;
}

/// Walks the cartesian product of \p PerHole, calling \p Visit with each
/// full parameter vector until it returns false or \p Cap visits happen.
void forEachArgTuple(
    const std::vector<std::vector<TermPtr>> &PerHole, size_t Cap,
    const std::function<bool(const std::vector<TermPtr> &)> &Visit) {
  std::vector<size_t> Idx(PerHole.size(), 0);
  std::vector<TermPtr> Args(PerHole.size());
  size_t Visited = 0;
  while (Visited < Cap) {
    for (size_t H = 0; H < PerHole.size(); ++H)
      Args[H] = PerHole[H][Idx[H]];
    ++Visited;
    if (!Visit(Args))
      return;
    // Odometer increment; done when it wraps (or there are no holes).
    size_t H = 0;
    for (; H < Idx.size(); ++H) {
      if (++Idx[H] < PerHole[H].size())
        break;
      Idx[H] = 0;
    }
    if (H == Idx.size())
      return;
  }
}

struct ScenarioCounts {
  uint64_t Applications = 0;
  uint64_t Accepted = 0;
};

/// The linter's depth-1 scenario universe for \p X: every capped
/// instantiation over the analysis table family the kernel accepts.
/// Shared verbatim between checkSoundness and enumerateAbsScenarios so
/// mutant certification and linting agree on what exists.
ScenarioCounts forEachAcceptedScenario(
    const Inhabitation &Inhab, const TableTransformer &X,
    const LintOptions &Opts,
    const std::function<void(const std::vector<Table> &,
                             const std::vector<TermPtr> &, const Table &)>
        &Visit) {
  ScenarioCounts Counts;
  std::vector<std::vector<Table>> Tuples;
  if (X.numTableArgs() == 1) {
    for (const Table &T : analysisSingleTables())
      Tuples.push_back({T});
  } else {
    for (const auto &P : analysisTablePairs())
      Tuples.push_back({P.first, P.second});
  }
  for (const std::vector<Table> &Tables : Tuples) {
    std::vector<std::vector<TermPtr>> PerHole;
    if (!enumHoles(Inhab, X, Tables, Opts.MaxTermsPerHole, PerHole))
      continue;
    forEachArgTuple(PerHole, Opts.MaxScenariosPerTuple,
                    [&](const std::vector<TermPtr> &Args) {
                      ++Counts.Applications;
                      std::optional<Table> Out = X.apply(Tables, Args);
                      if (Out) {
                        ++Counts.Accepted;
                        Visit(Tables, Args, *Out);
                      }
                      return true;
                    });
  }
  return Counts;
}

class Linter {
public:
  Linter(const ComponentLibrary &Lib, const LintOptions &Opts)
      : Lib(Lib), Opts(Opts), Solver(Ctx), Inhab(Lib) {}

  LintReport run() {
    for (const TableTransformer *X : Lib.TableTransformers) {
      if (Opts.Only && X != Opts.Only)
        continue;
      ++Report.Stats.Components;
      for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2})
        checkSatisfiable(*X, L);
      checkRefinement(*X);
      if (Opts.Soundness)
        checkSoundness(*X);
    }
    if (Opts.Soundness)
      checkGroupChains();
    return std::move(Report);
  }

private:
  const ComponentLibrary &Lib;
  LintOptions Opts;
  z3::context Ctx;
  z3::solver Solver;
  Inhabitation Inhab;
  LintReport Report;
  std::unordered_set<uint64_t> SeenScenarios;
  /// Components already reported for a gate rejection (one issue each).
  std::unordered_set<const TableTransformer *> GateFlagged;
  unsigned NextVar = 0;

  void issue(LintKind K, bool IsError, const TableTransformer &X, SpecLevel L,
             std::string Msg, std::vector<std::string> Details = {}) {
    Report.Issues.push_back({K, IsError || Opts.Pedantic, X.name(), L,
                             std::move(Msg), std::move(Details)});
  }

  NodeVars freshNode(const char *Prefix) {
    std::string P = std::string("$lint_") + Prefix + std::to_string(NextVar++);
    auto Var = [&](const char *Suffix) {
      return Ctx.int_const((P + Suffix).c_str());
    };
    return {Var("_r"), Var("_c"), Var("_g"), Var("_nc"), Var("_nv")};
  }

  struct Nodes {
    std::vector<NodeVars> Args;
    NodeVars Result;
  };

  /// Fresh arg/result nodes with domain axioms asserted.
  Nodes makeNodes(unsigned NumArgs) {
    Nodes N{{}, freshNode("y")};
    for (unsigned I = 0; I < NumArgs; ++I)
      N.Args.push_back(freshNode("a"));
    for (const NodeVars &V : N.Args)
      Solver.add(nodeAxioms(V));
    Solver.add(nodeAxioms(N.Result));
    return N;
  }

  void bindConcrete(const NodeVars &N, const AttrValues &A) {
    Solver.add(N.Row == Ctx.int_val(int64_t(A.Row)));
    Solver.add(N.Col == Ctx.int_val(int64_t(A.Col)));
    Solver.add(N.NewCols == Ctx.int_val(int64_t(A.NewCols)));
    Solver.add(N.NewVals == Ctx.int_val(int64_t(A.NewVals)));
  }

  /// Checks axioms ∧ F for satisfiability via per-atom assumption
  /// literals; on UNSAT reports the core's atoms. With \p InputsGroupOne
  /// the argument nodes are additionally pinned to group = 1, the binding
  /// every depth-1 sketch implies.
  void checkSatisfiable(const TableTransformer &X, SpecLevel L) {
    const SpecFormula &F = X.spec(L);
    if (F.isTrue())
      return;
    for (bool InputsGroupOne : {false, true}) {
      Solver.push();
      Nodes N = makeNodes(X.numTableArgs());
      if (InputsGroupOne)
        for (const NodeVars &V : N.Args)
          Solver.add(V.Group == 1);
      z3::expr_vector Assumptions(Ctx);
      for (size_t I = 0; I < F.Atoms.size(); ++I) {
        z3::expr P =
            Ctx.bool_const(("$lint_p" + std::to_string(NextVar++)).c_str());
        Solver.add(
            z3::implies(P, compileAtom(Ctx, F.Atoms[I], N.Args, N.Result)));
        Assumptions.push_back(P);
      }
      ++Report.Stats.SatChecks;
      z3::check_result R = Solver.check(Assumptions);
      if (R == z3::unsat) {
        // Map the core literals back to atom strings.
        std::vector<std::string> Core;
        z3::expr_vector CoreLits = Solver.unsat_core();
        for (unsigned I = 0; I < CoreLits.size(); ++I)
          for (unsigned J = 0; J < Assumptions.size(); ++J)
            if (z3::eq(CoreLits[I], Assumptions[J]))
              Core.push_back(F.Atoms[J].toString());
        if (Core.empty())
          Core.push_back("(conflict with domain axioms)");
        issue(InputsGroupOne ? LintKind::UnsatOnInputs : LintKind::UnsatSpec,
              /*IsError=*/true, X, L,
              InputsGroupOne
                  ? "spec is unsatisfiable whenever the arguments are "
                    "example inputs (group = 1); every depth-1 sketch using "
                    "this component is pruned"
                  : "spec conjoined with the table-domain axioms is "
                    "unsatisfiable; every sketch using this component is "
                    "pruned",
              std::move(Core));
        Solver.pop();
        return; // the group=1 variant adds nothing once the base is UNSAT
      }
      Solver.pop();
    }
  }

  /// Spec 2 must refine Spec 1: axioms ∧ Spec2 ∧ ¬Spec1 must be UNSAT.
  void checkRefinement(const TableTransformer &X) {
    const SpecFormula &S1 = X.spec(SpecLevel::Spec1);
    const SpecFormula &S2 = X.spec(SpecLevel::Spec2);
    if (S1.isTrue() || S2.isTrue())
      return; // true is refined by everything / refines nothing to check
    Solver.push();
    Nodes N = makeNodes(X.numTableArgs());
    for (const SpecAtom &A : S2.Atoms)
      Solver.add(compileAtom(Ctx, A, N.Args, N.Result));
    z3::expr_vector Violations(Ctx);
    for (const SpecAtom &A : S1.Atoms)
      Violations.push_back(!compileAtom(Ctx, A, N.Args, N.Result));
    Solver.add(z3::mk_or(Violations));
    ++Report.Stats.SatChecks;
    if (Solver.check() == z3::sat)
      issue(LintKind::NonRefinement, /*IsError=*/false, X, SpecLevel::Spec2,
            "Spec 2 admits attribute values Spec 1 rejects; the levels "
            "disagree about which sketches survive deduction");
    Solver.pop();
  }

  std::string describeScenario(const TableTransformer &X,
                               const std::vector<Table> &Tables,
                               const std::vector<TermPtr> &Args) {
    std::ostringstream OS;
    OS << X.name() << "(";
    for (size_t I = 0; I < Tables.size(); ++I)
      OS << (I ? ", " : "") << Tables[I].numRows() << "x"
         << Tables[I].numCols() << " table";
    for (const TermPtr &A : Args)
      OS << ", " << A->toString();
    OS << ")";
    return OS.str();
  }

  /// One solver query: does α of a concrete kernel run satisfy the
  /// encoded spec (group attributes free, as in Deduce.cpp)? Emits
  /// an UnsoundSpec error on UNSAT. \p MidChain describes an optional
  /// chain prefix already asserted by the caller.
  void checkScenarioSat(const TableTransformer &X, SpecLevel L,
                        const std::vector<AttrValues> &InputAbs,
                        const AttrValues &OutAbs, std::string Witness,
                        std::vector<std::string> ExtraDetails = {}) {
    const SpecFormula &F = X.spec(L);
    if (F.isTrue())
      return;
    SigHash Sig;
    Sig.add(reinterpret_cast<uintptr_t>(&X));
    Sig.add(L == SpecLevel::Spec1 ? 1 : 2);
    for (const AttrValues &A : InputAbs) {
      Sig.addAttrs(A);
      Sig.add(uint64_t(A.Group)); // chains carry a bound mid group
    }
    Sig.addAttrs(OutAbs);
    Sig.add(ExtraDetails.size()); // depth-1 vs chain shape
    if (!SeenScenarios.insert(Sig.H).second) {
      ++Report.Stats.DedupHits;
      return;
    }
    Solver.push();
    Nodes N = makeNodes(unsigned(InputAbs.size()));
    for (size_t I = 0; I < InputAbs.size(); ++I) {
      bindConcrete(N.Args[I], InputAbs[I]);
      Solver.add(N.Args[I].Group == Ctx.int_val(int64_t(InputAbs[I].Group)));
    }
    bindConcrete(N.Result, OutAbs); // group left free (abstract attribute)
    Solver.add(encodeSpec(Ctx, F, N.Args, N.Result));
    ++Report.Stats.SoundnessChecks;
    if (Solver.check() == z3::unsat) {
      std::vector<std::string> Details;
      Details.push_back("witness: " + Witness);
      for (size_t I = 0; I < InputAbs.size(); ++I)
        Details.push_back("alpha(x" + std::to_string(I + 1) +
                          "): " + describeAttrs(InputAbs[I], true));
      Details.push_back("alpha(y):  " + describeAttrs(OutAbs, false));
      for (std::string &D : ExtraDetails)
        Details.push_back(std::move(D));
      issue(LintKind::UnsoundSpec, /*IsError=*/true, X, L,
            "kernel accepts a concrete run whose abstraction the compiled "
            "spec refutes; deduction would prune the correct program",
            std::move(Details));
    }
    Solver.pop();
  }

  /// The header gate must accept what the kernel returned for the same
  /// call, or the synthesizer would skip that candidate unevaluated.
  void checkGate(const TableTransformer &X, const std::vector<Table> &Tables,
                 const std::vector<TermPtr> &Args, const Table &Out,
                 const std::string &Witness) {
    ++Report.Stats.GateChecks;
    if (X.mayYield(Tables, Args, Out) || !GateFlagged.insert(&X).second)
      return;
    issue(LintKind::GateRejectsOutput, /*IsError=*/true, X, SpecLevel::Spec1,
          "the header gate (mayYield) rejects a table the kernel returns for "
          "the same call; the synthesizer would skip that candidate and lose "
          "its program",
          {"witness: " + Witness,
           "output: " + std::to_string(Out.numRows()) + "x" +
               std::to_string(Out.numCols()) + " table"});
  }

  /// Depth-1 abstraction and gate soundness over the concrete table family.
  void checkSoundness(const TableTransformer &X) {
    // The trivial spec rejects nothing; the gate is checked regardless.
    bool TrivialSpec = X.spec(SpecLevel::Spec1).isTrue() &&
                       X.spec(SpecLevel::Spec2).isTrue();
    ScenarioCounts Counts = forEachAcceptedScenario(
        Inhab, X, Opts,
        [&](const std::vector<Table> &Tables,
            const std::vector<TermPtr> &Args, const Table &Out) {
          std::string W = describeScenario(X, Tables, Args);
          checkGate(X, Tables, Args, Out, W);
          if (TrivialSpec)
            return;
          ExampleBase Base = ExampleBase::fromInputs(Tables);
          std::vector<AttrValues> InputAbs;
          for (const Table &T : Tables)
            InputAbs.push_back(abstractTable(T, Base));
          AttrValues OutAbs = abstractTable(Out, Base);
          for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2})
            checkScenarioSat(X, L, InputAbs, OutAbs, W);
        });
    Report.Stats.Applications += Counts.Applications;
    Report.Stats.Scenarios += Counts.Accepted;
    if (Opts.Pedantic && Counts.Accepted == 0)
      issue(LintKind::NoScenario, /*IsError=*/false, X, SpecLevel::Spec1,
            "no enumerated instantiation was accepted by the kernel; the "
            "abstraction-soundness check did not exercise this component");
  }

  /// Depth-2 chains `g(group_by(T, cols), ...)`: the mid table has a real
  /// group structure, so g's group/newCols atoms are exercised with a mid
  /// node whose group attribute deduction would constrain through the
  /// group_by spec rather than pin to 1.
  void checkGroupChains() {
    const TableTransformer *GB = Lib.findTable("group_by");
    if (!GB)
      return;
    for (const TableTransformer *G : Lib.TableTransformers) {
      if (G->numTableArgs() != 1 || G == GB)
        continue;
      if (Opts.Only && G != Opts.Only && GB != Opts.Only)
        continue;
      for (const Table &T : analysisSingleTables()) {
        std::vector<Table> In{T};
        std::vector<std::vector<TermPtr>> GBHole;
        if (!enumHoles(Inhab, *GB, In, Opts.MaxTermsPerHole, GBHole))
          continue;
        size_t ChainBudget = Opts.MaxChainScenariosPerTable;
        forEachArgTuple(GBHole, 4, [&](const std::vector<TermPtr> &GBArgs) {
          ++Report.Stats.Applications;
          std::optional<Table> Mid = GB->apply(In, GBArgs);
          if (!Mid)
            return true;
          std::vector<Table> MidIn{*Mid};
          std::vector<std::vector<TermPtr>> PerHole;
          if (!enumHoles(Inhab, *G, MidIn, Opts.MaxTermsPerHole, PerHole))
            return true;
          forEachArgTuple(PerHole, ChainBudget,
                          [&](const std::vector<TermPtr> &Args) {
            ++Report.Stats.Applications;
            std::optional<Table> Out = G->apply(MidIn, Args);
            if (!Out)
              return true;
            ++Report.Stats.ChainScenarios;
            std::string W = "group_by(" + std::to_string(T.numRows()) + "x" +
                            std::to_string(T.numCols()) + " table";
            for (const TermPtr &A : GBArgs)
              W += ", " + A->toString();
            W += ") |> " + describeScenario(*G, MidIn, Args);
            // A grouped mid table exercises the gates' group-aware rows.
            checkGate(*G, MidIn, Args, *Out, W);
            ExampleBase Base = ExampleBase::fromInputs(In);
            AttrValues InAbs = abstractTable(T, Base);
            AttrValues MidAbs = abstractTable(*Mid, Base);
            AttrValues OutAbs = abstractTable(*Out, Base);
            checkChainSat(*GB, *G, InAbs, MidAbs, OutAbs, W);
            return true;
          });
          return true;
        });
      }
    }
  }

  /// SAT check of the full two-node chain, mirroring a Deduce.cpp query:
  /// axioms on all three nodes, input bound with group = 1, mid and output
  /// bound concretely with group free, both specs encoded.
  void checkChainSat(const TableTransformer &GB, const TableTransformer &G,
                     const AttrValues &InAbs, const AttrValues &MidAbs,
                     const AttrValues &OutAbs, const std::string &Witness) {
    for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2}) {
      const SpecFormula &GBSpec = GB.spec(L), &GSpec = G.spec(L);
      if (GBSpec.isTrue() && GSpec.isTrue())
        continue;
      SigHash Sig;
      Sig.add(reinterpret_cast<uintptr_t>(&GB));
      Sig.add(reinterpret_cast<uintptr_t>(&G));
      Sig.add(L == SpecLevel::Spec1 ? 1 : 2);
      Sig.addAttrs(InAbs);
      Sig.addAttrs(MidAbs);
      Sig.addAttrs(OutAbs);
      if (!SeenScenarios.insert(Sig.H).second) {
        ++Report.Stats.DedupHits;
        continue;
      }
      Solver.push();
      NodeVars N0 = freshNode("a"), N1 = freshNode("m"), N2 = freshNode("y");
      for (const NodeVars *N : {&N0, &N1, &N2})
        Solver.add(nodeAxioms(*N));
      bindConcrete(N0, InAbs);
      Solver.add(N0.Group == 1);
      bindConcrete(N1, MidAbs); // group free: constrained via group_by's spec
      bindConcrete(N2, OutAbs); // group free
      Solver.add(encodeSpec(Ctx, GBSpec, {N0}, N1));
      Solver.add(encodeSpec(Ctx, GSpec, {N1}, N2));
      ++Report.Stats.SoundnessChecks;
      if (Solver.check() == z3::unsat) {
        const TableTransformer &Blame =
            (Opts.Only && &GB == Opts.Only) ? GB : G;
        issue(LintKind::UnsoundSpec, /*IsError=*/true, Blame, L,
              "a concrete group_by chain the kernels accept is refuted by "
              "the composed compiled specs; deduction would prune the "
              "correct program",
              {"witness: " + Witness,
               "alpha(x1): " + describeAttrs(InAbs, true),
               "alpha(mid): " + describeAttrs(MidAbs, false),
               "alpha(y):  " + describeAttrs(OutAbs, false)});
      }
      Solver.pop();
    }
  }
};

void jsonEscape(std::ostringstream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        OS << Buf;
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

} // namespace

LintReport morpheus::lintLibrary(const ComponentLibrary &Lib,
                                 const LintOptions &Opts) {
  return Linter(Lib, Opts).run();
}

std::vector<AbsScenario>
morpheus::enumerateAbsScenarios(const TableTransformer &X,
                                const ComponentLibrary &Lib,
                                const LintOptions &Opts) {
  Inhabitation Inhab(Lib);
  std::vector<AbsScenario> Out;
  forEachAcceptedScenario(
      Inhab, X, Opts,
      [&](const std::vector<Table> &Tables, const std::vector<TermPtr> &,
          const Table &Result) {
        ExampleBase Base = ExampleBase::fromInputs(Tables);
        AbsScenario S;
        for (const Table &T : Tables)
          S.Inputs.push_back(abstractTable(T, Base));
        S.Output = abstractTable(Result, Base);
        Out.push_back(std::move(S));
      });
  return Out;
}

std::string morpheus::reportToJson(const LintReport &R) {
  std::ostringstream OS;
  OS << "{\"tool\":\"morpheus-analyze\",\"clean\":"
     << (R.clean() ? "true" : "false") << ",\"errors\":" << R.errorCount()
     << ",\"warnings\":" << R.warningCount() << ",\"stats\":{"
     << "\"components\":" << R.Stats.Components
     << ",\"satChecks\":" << R.Stats.SatChecks
     << ",\"applications\":" << R.Stats.Applications
     << ",\"scenarios\":" << R.Stats.Scenarios
     << ",\"chainScenarios\":" << R.Stats.ChainScenarios
     << ",\"soundnessChecks\":" << R.Stats.SoundnessChecks
     << ",\"dedupHits\":" << R.Stats.DedupHits
     << ",\"gateChecks\":" << R.Stats.GateChecks << "},\"issues\":[";
  for (size_t I = 0; I < R.Issues.size(); ++I) {
    const LintIssue &Issue = R.Issues[I];
    if (I)
      OS << ',';
    OS << "{\"kind\":\"" << lintKindName(Issue.Kind) << "\",\"severity\":\""
       << (Issue.IsError ? "error" : "warning") << "\",\"component\":";
    jsonEscape(OS, Issue.Component);
    OS << ",\"level\":\"" << levelName(Issue.Level) << "\",\"message\":";
    jsonEscape(OS, Issue.Message);
    OS << ",\"details\":[";
    for (size_t J = 0; J < Issue.Details.size(); ++J) {
      if (J)
        OS << ',';
      jsonEscape(OS, Issue.Details[J]);
    }
    OS << "]}";
  }
  OS << "]}";
  return OS.str();
}
