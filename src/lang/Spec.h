//===- lang/Spec.h - First-order component specifications -------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specification language for components (Definition 2). A component
/// spec is a conjunction of linear-integer-arithmetic atoms over abstract
/// attributes of the component's argument tables (x1..xn) and its result
/// (y). Attributes follow the paper: `row`/`col` (Spec 1, Table 2) plus
/// `group`/`newCols`/`newVals` (Spec 2, Table 3 and Appendix A).
///
/// Specs are *data*, not code: the deduction engine (src/smt) compiles them
/// to Z3 constraints, so users can attach a spec to any new component
/// without touching the synthesizer — the paper's central design point.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_LANG_SPEC_H
#define MORPHEUS_LANG_SPEC_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace morpheus {

/// Abstract attributes of a table tracked by the deduction engine.
enum class TableAttr { Row, Col, Group, NewCols, NewVals };

std::string_view tableAttrName(TableAttr A);

/// Which specification family a formula belongs to (Section 9: Spec 1 only
/// constrains row/col; Spec 2 is strictly more precise).
enum class SpecLevel { Spec1, Spec2 };

struct SpecExpr;
using SpecExprPtr = std::shared_ptr<const SpecExpr>;

/// An integer expression over table attributes.
///
/// \c ArgIndex designates whose attribute is referenced: 0..n-1 are the
/// component's table arguments x1..xn, -1 is the result y.
struct SpecExpr {
  enum class Kind { Const, Attr, Add, Sub, Min, Max };

  Kind K;
  int64_t ConstVal = 0;        // Const
  int ArgIndex = 0;            // Attr
  TableAttr Attr = TableAttr::Row; // Attr
  SpecExprPtr Lhs, Rhs;        // Add/Sub/Min/Max

  static SpecExprPtr constant(int64_t C);
  static SpecExprPtr attr(int ArgIndex, TableAttr A);
  static SpecExprPtr binary(Kind K, SpecExprPtr L, SpecExprPtr R);

  std::string toString() const;
};

/// Comparison operators of spec atoms.
enum class SpecCmp { EQ, LT, LE, GT, GE };

/// One atom: `Lhs op Rhs`.
struct SpecAtom {
  SpecCmp Op;
  SpecExprPtr Lhs, Rhs;

  std::string toString() const;
};

/// A conjunction of atoms; the empty conjunction is `true` (the always-valid
/// spec of Definition 2).
struct SpecFormula {
  std::vector<SpecAtom> Atoms;

  bool isTrue() const { return Atoms.empty(); }
  std::string toString() const;
};

/// Whether \p A mentions a `group` attribute of any table.
bool mentionsGroup(const SpecAtom &A);

/// The group-free projection of \p F: its atoms that mention no `group`
/// attribute. Partial evaluation never knows a table's group attribute
/// concretely (it is abstract, see spec/Abstraction.h), so this is the part
/// of a spec a concrete check can evaluate.
SpecFormula groupFree(const SpecFormula &F);

/// Concrete attribute values of one table, used by the direct evaluator.
struct AttrValues {
  int64_t Row = 0, Col = 0, Group = 1, NewCols = 0, NewVals = 0;

  int64_t get(TableAttr A) const;
};

/// Evaluates \p F with arguments bound to \p Args and the result bound to
/// \p Result. Used by the spec-soundness property tests and the
/// interval-propagation fast path.
bool evalSpec(const SpecFormula &F, const std::vector<AttrValues> &Args,
              const AttrValues &Result);

// Builder DSL so spec tables read like the paper, e.g.:
//   {outA(Row) <= inA(0, Row), outA(Col) >= inA(0, Col)}
namespace specdsl {

inline SpecExprPtr lit(int64_t C) { return SpecExpr::constant(C); }
inline SpecExprPtr inA(int I, TableAttr A) { return SpecExpr::attr(I, A); }
inline SpecExprPtr outA(TableAttr A) { return SpecExpr::attr(-1, A); }

inline SpecExprPtr operator+(SpecExprPtr L, int64_t C) {
  return SpecExpr::binary(SpecExpr::Kind::Add, std::move(L), lit(C));
}
inline SpecExprPtr operator+(SpecExprPtr L, SpecExprPtr R) {
  return SpecExpr::binary(SpecExpr::Kind::Add, std::move(L), std::move(R));
}
inline SpecExprPtr operator-(SpecExprPtr L, int64_t C) {
  return SpecExpr::binary(SpecExpr::Kind::Sub, std::move(L), lit(C));
}
inline SpecExprPtr smin(SpecExprPtr L, SpecExprPtr R) {
  return SpecExpr::binary(SpecExpr::Kind::Min, std::move(L), std::move(R));
}
inline SpecExprPtr smax(SpecExprPtr L, SpecExprPtr R) {
  return SpecExpr::binary(SpecExpr::Kind::Max, std::move(L), std::move(R));
}

inline SpecAtom operator==(SpecExprPtr L, SpecExprPtr R) {
  return {SpecCmp::EQ, std::move(L), std::move(R)};
}
inline SpecAtom operator<(SpecExprPtr L, SpecExprPtr R) {
  return {SpecCmp::LT, std::move(L), std::move(R)};
}
inline SpecAtom operator<=(SpecExprPtr L, SpecExprPtr R) {
  return {SpecCmp::LE, std::move(L), std::move(R)};
}
inline SpecAtom operator>(SpecExprPtr L, SpecExprPtr R) {
  return {SpecCmp::GT, std::move(L), std::move(R)};
}
inline SpecAtom operator>=(SpecExprPtr L, SpecExprPtr R) {
  return {SpecCmp::GE, std::move(L), std::move(R)};
}

} // namespace specdsl

} // namespace morpheus

#endif // MORPHEUS_LANG_SPEC_H
