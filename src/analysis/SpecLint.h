//===- analysis/SpecLint.h - SMT spec-soundness linter ----------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static checks on the component library's first-order specifications —
/// the soundness-critical data the deduction engine prunes with. A wrong
/// spec is the worst class of bug this codebase can have: DEDUCE silently
/// discards the correct program and synthesis "just fails", with nothing
/// at runtime to catch it (Theorem 1 holds only if every φ over-approximates
/// its component). The linter makes that property checkable:
///
///  1. Satisfiability: for each (component, level), the spec conjoined
///     with the table-domain axioms must be SAT — an UNSAT spec prunes
///     every sketch containing the component. Reported with the minimal
///     conflicting atom set (Z3 unsat core over per-atom assumption
///     literals).
///  2. Refinement: Spec 2 must imply Spec 1 (Section 9 presents Spec 2 as
///     strictly more precise); a Spec 2 model violating Spec 1 means the
///     two levels disagree about which sketches survive.
///  3. Abstraction soundness: for every component, enumerate small
///     concrete input tables (analysis/TableEnum.h) and parameter terms
///     (the synthesizer's own Inhabitation rules), run the real kernel,
///     and require that α(inputs) → α(output) satisfies the spec as
///     smt/SpecCompiler.h encodes it — exactly the constraint DEDUCE
///     would assert, group attributes left free as in Deduce.cpp. UNSAT is
///     a concrete witness that the spec rejects a behaviour the kernel
///     exhibits, i.e. DEDUCE over-prunes. Depth-2 chains through group_by
///     are checked the same way so group/newCols atoms are exercised with
///     a non-input mid node.
///  4. Gate soundness: on every kernel run of check 3 (and the last
///     component of every chain), the component's header gate
///     (TableTransformer::mayYield) must accept the table the kernel
///     returned. A `false` is a candidate the synthesizer would skip
///     without running the kernel, i.e. a lost program. This runs even for
///     components whose spec is `true`.
///
/// All solver work shares one Z3 context/solver with push/pop, and
/// scenario checks are deduplicated by (component, level, α-signature), so
/// linting the full standard library is a few hundred tiny LIA queries.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_ANALYSIS_SPECLINT_H
#define MORPHEUS_ANALYSIS_SPECLINT_H

#include "lang/Component.h"

#include <cstdint>
#include <string>
#include <vector>

namespace morpheus {

/// What a lint issue is about.
enum class LintKind {
  /// axioms ∧ spec is UNSAT: the component can never be deduced feasible.
  UnsatSpec,
  /// axioms ∧ spec ∧ (inputs bound, group = 1) is UNSAT: the spec rejects
  /// every depth-1 application to example inputs.
  UnsatOnInputs,
  /// Spec 2 admits a point Spec 1 rejects (levels disagree).
  NonRefinement,
  /// A concrete kernel run whose abstraction the compiled spec refutes.
  UnsoundSpec,
  /// Pedantic: no enumerated instantiation was accepted by the kernel, so
  /// the soundness check never exercised this component.
  NoScenario,
  /// The header gate rejects a table the kernel returns for that call.
  GateRejectsOutput,
};

const char *lintKindName(LintKind K);

struct LintIssue {
  LintKind Kind;
  bool IsError;
  std::string Component;
  SpecLevel Level;
  std::string Message;
  /// Kind-specific evidence: unsat-core atoms, or the witness scenario
  /// (tables, parameters, abstractions) line by line.
  std::vector<std::string> Details;
};

struct LintStats {
  uint64_t Components = 0;
  uint64_t SatChecks = 0;     ///< satisfiability/refinement solver calls
  uint64_t Applications = 0;  ///< kernel apply() attempts
  uint64_t Scenarios = 0;     ///< applications the kernel accepted
  uint64_t ChainScenarios = 0;///< accepted depth-2 group_by chains
  uint64_t SoundnessChecks = 0; ///< scenario solver calls after dedup
  uint64_t DedupHits = 0;     ///< scenarios skipped via α-signature cache
  uint64_t GateChecks = 0;    ///< kernel outputs tested against the gate
};

struct LintReport {
  std::vector<LintIssue> Issues;
  LintStats Stats;

  unsigned errorCount() const;
  unsigned warningCount() const;
  bool clean() const { return errorCount() == 0; }
};

struct LintOptions {
  /// Promote warnings to errors and report coverage gaps (NoScenario).
  bool Pedantic = false;
  /// Run the scenario-based abstraction-soundness check (the expensive
  /// two thirds of the linter).
  bool Soundness = true;
  /// Restrict checks to this component (others still participate as chain
  /// partners). Used by the mutant sweep.
  const TableTransformer *Only = nullptr;
  /// Caps keeping the scenario enumeration small and deterministic.
  size_t MaxTermsPerHole = 12;
  size_t MaxScenariosPerTuple = 48;
  size_t MaxChainScenariosPerTable = 24;
};

/// Lints every table transformer of \p Lib. The library's value
/// transformers drive parameter-term inhabitation, so pass a full library
/// (e.g. StandardComponents::get().tidyDplyr()).
LintReport lintLibrary(const ComponentLibrary &Lib,
                       const LintOptions &Opts = {});

/// Renders \p R as a machine-readable JSON document (one object; stable
/// key order; no trailing newline).
std::string reportToJson(const LintReport &R);

/// One accepted depth-1 kernel run and its abstraction. Exposed for the
/// mutant certification in SpecMutants.cpp: the enumeration uses the same
/// table family, inhabitation rules and caps as the linter's soundness
/// check, so a violation witnessed here is guaranteed to be in the
/// linter's scenario universe.
struct AbsScenario {
  std::vector<AttrValues> Inputs;
  AttrValues Output;
};

std::vector<AbsScenario> enumerateAbsScenarios(const TableTransformer &X,
                                               const ComponentLibrary &Lib,
                                               const LintOptions &Opts = {});

} // namespace morpheus

#endif // MORPHEUS_ANALYSIS_SPECLINT_H
