//===- lang/Hypothesis.h - Refinement trees ---------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hypotheses — partial programs with holes — represented as refinement
/// trees (Section 4, Figures 4 and 5). A node is one of:
///
///  - TblHole    : `?i : tbl`, an unknown table-typed expression
///  - ValueHole  : `?i : τ` for a first-order parameter kind τ
///  - Input      : `(?i : tbl)@(x_j, T_j)`, a hole qualified with input j
///  - Filled     : `(?i : τ)@t`, a value hole qualified with term t
///  - Apply      : `?X_i(H1, ..., Hn)`, refinement with component X
///
/// Trees are immutable and shared; refinement and filling rebuild only the
/// spine. A *sketch* (Definition 6) has no TblHole leaves; a *complete
/// program* (Definition 7) additionally has no ValueHole leaves.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_LANG_HYPOTHESIS_H
#define MORPHEUS_LANG_HYPOTHESIS_H

#include "lang/Component.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace morpheus {

class Hypothesis;
using HypPtr = std::shared_ptr<const Hypothesis>;

class Hypothesis {
public:
  enum class Kind { TblHole, ValueHole, Input, Filled, Apply };

  Kind kind() const { return K; }
  bool isTblHole() const { return K == Kind::TblHole; }
  bool isValueHole() const { return K == Kind::ValueHole; }
  bool isInput() const { return K == Kind::Input; }
  bool isFilled() const { return K == Kind::Filled; }
  bool isApply() const { return K == Kind::Apply; }

  /// Returns whether this node evaluates to a table (Input or Apply whose
  /// table children are table-valued; TblHole is table-*typed* but unknown).
  bool isTableTyped() const {
    return K == Kind::TblHole || K == Kind::Input || K == Kind::Apply;
  }

  ParamKind paramKind() const {
    assert(K == Kind::ValueHole || K == Kind::Filled);
    return PKind;
  }
  size_t inputIndex() const {
    assert(K == Kind::Input);
    return InputIdx;
  }
  const TermPtr &term() const {
    assert(K == Kind::Filled);
    return FilledTerm;
  }
  const TableTransformer *component() const {
    assert(K == Kind::Apply);
    return Comp;
  }
  const std::vector<HypPtr> &children() const {
    assert(K == Kind::Apply);
    return Children;
  }

  static HypPtr tblHole();
  static HypPtr valueHole(ParamKind PK);
  static HypPtr input(size_t InputIdx);
  static HypPtr filled(ParamKind PK, TermPtr T);
  /// Builds `?X(children)`; children must match X's signature.
  static HypPtr apply(const TableTransformer *X, std::vector<HypPtr> Children);
  /// Builds `?X(holes...)` with fresh holes per X's signature — the
  /// refinement step H[?X(?~τ)/?i] of Algorithm 1, lines 16-18.
  static HypPtr applyWithHoles(const TableTransformer *X);

  /// Number of Apply nodes (the "size" used for Occam ordering, Sec. 8).
  size_t numApplies() const { return NumApplies; }
  /// Number of TblHole leaves.
  size_t numTblHoles() const { return NumTblHoles; }
  /// Number of ValueHole leaves.
  size_t numValueHoles() const { return NumValueHoles; }

  bool isSketch() const;          // Definition 6
  bool isCompleteProgram() const; // Definition 7

  /// Replaces the *leftmost* TblHole with \p Replacement; asserts one
  /// exists. Refining only the leftmost hole yields each refinement tree by
  /// exactly one derivation, but it reaches fewer trees than the paper's
  /// any-hole rule: a hole becomes an input only in sketches(), after
  /// refinement ends, so once the leftmost hole has to stay an input no
  /// hole right of it can be refined. A tree whose input leaf precedes a
  /// later application in pre-order is never derived, e.g.
  /// `inner_join(x0, filter(x1, ...))` or the two-`gather` join of the
  /// paper's Example 3 (suite task C7-01).
  HypPtr replaceLeftmostTblHole(HypPtr Replacement) const;

  /// All assignments of input indices (0..NumInputs-1) to TblHole leaves —
  /// the SKETCHES function of Figure 11.
  std::vector<HypPtr> sketches(size_t NumInputs) const;

  /// Partial evaluation [[H]]∂ restricted to this node: returns the
  /// concrete table this subtree denotes if it is a complete program
  /// (Figure 7), nullopt if it is still partial or its evaluation fails.
  std::optional<Table> evaluate(const std::vector<Table> &Inputs) const;

  /// Component names of Apply nodes in pre-order (for the n-gram model).
  void collectComponentNames(std::vector<std::string> &Out) const;

  /// Renders the hypothesis: `select(filter(x0, ?pred), ?cols)`. For
  /// executable R output use io/ProgramIO's emitRProgram; for a
  /// round-trippable form use printSexp.
  std::string toString() const;

private:
  Hypothesis() = default;

  Kind K = Kind::TblHole;
  ParamKind PKind = ParamKind::Cols;
  size_t InputIdx = 0;
  TermPtr FilledTerm;
  const TableTransformer *Comp = nullptr;
  std::vector<HypPtr> Children;
  /// The three counts of this subtree, fixed when the node is built (a
  /// node never changes), so each accessor is O(1).
  size_t NumApplies = 0, NumTblHoles = 0, NumValueHoles = 0;
};

} // namespace morpheus

#endif // MORPHEUS_LANG_HYPOTHESIS_H
