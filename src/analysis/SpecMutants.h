//===- analysis/SpecMutants.h - Seeded-unsound spec mutants -----*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutation testing for the spec linter: systematically damaged copies of
/// the standard components' specifications, used to prove the linter
/// actually catches unsound specs (AnalysisTest and `morpheus analyze
/// --self-check`).
///
/// Each mutant wraps the original component — same kernel, same signature
/// — with one spec formula rewritten: a comparison tightened (<= to <),
/// a bound shifted by one, result/argument placeholders swapped, row/col
/// attributes swapped, min/max exchanged, or a contradictory atom
/// appended (vacuous). One mutant per component *weakens* the spec by
/// dropping an atom; a weaker over-approximation is still sound, so it
/// must NOT be flagged — the negative control that the linter does not
/// cry wolf.
///
/// Expectation labels are not guessed: a strengthening mutant is emitted
/// with ExpectUnsound = true only when concrete evaluation (evalSpec, a
/// code path independent of Z3) exhibits an enumerated kernel run whose
/// abstraction violates the mutated atom. The sweep therefore asserts
/// that two independent mechanisms — direct evaluation and the SMT
/// encoding of smt/SpecCompiler.h — agree on every seeded fault.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_ANALYSIS_SPECMUTANTS_H
#define MORPHEUS_ANALYSIS_SPECMUTANTS_H

#include "analysis/SpecLint.h"

#include <memory>

namespace morpheus {

enum class MutationKind {
  TightenCmp,  ///< <= to <, >= to >, == to <
  ShiftBound,  ///< tighten an inequality's bound by one
  SwapInOut,   ///< swap result (y) and first-argument (x1) placeholders
  SwapAttr,    ///< swap row and col attributes within one atom
  MinMaxSwap,  ///< exchange min and max ("drop a disjunct" of the bound)
  Vacuous,     ///< append y.row < 0 (contradicts the domain axioms)
  DropAtom,    ///< remove one atom: sound weakening, the negative control
};

const char *mutationKindName(MutationKind K);

struct SpecMutant {
  MutationKind Kind;
  SpecLevel Level;
  /// "component/level: description of the rewrite".
  std::string Description;
  /// True when the linter must flag the mutant (certified by a concrete
  /// evalSpec witness, or by construction for Vacuous). DropAtom mutants
  /// are always false.
  bool ExpectUnsound;
  /// The damaged component; delegates apply() to the original.
  std::shared_ptr<const TableTransformer> Component;
};

/// All certified mutants of \p X's specs. \p Lib supplies the value
/// transformers for the certification scenario enumeration; \p Opts the
/// same caps the linter will use (certification and lint must see the
/// same scenario universe).
std::vector<SpecMutant> generateSpecMutants(const TableTransformer &X,
                                            const ComponentLibrary &Lib,
                                            const LintOptions &Opts = {});

struct MutantSweepResult {
  uint64_t Total = 0;
  uint64_t ExpectedUnsound = 0;
  uint64_t Killed = 0;
  /// ExpectUnsound mutants the linter failed to flag (must be empty).
  std::vector<std::string> Survivors;
  /// Negative-control mutants the linter wrongly flagged (must be empty).
  std::vector<std::string> FalseAlarms;

  bool ok() const { return Survivors.empty() && FalseAlarms.empty(); }
};

/// Generates mutants for every component of \p Lib and lints each inside
/// a copy of the library with that component replaced by the mutant.
MutantSweepResult sweepMutants(const ComponentLibrary &Lib,
                               const LintOptions &Opts = {});

} // namespace morpheus

#endif // MORPHEUS_ANALYSIS_SPECMUTANTS_H
