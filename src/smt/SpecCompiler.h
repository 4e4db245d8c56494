//===- smt/SpecCompiler.h - Spec formulas to Z3 -----------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one encoding of component specs into Z3: a SpecFormula over the
/// attribute variables of a node's table arguments and result, and the
/// domain axioms of one table node. Deduction (smt/Deduce.cpp) encodes each
/// (tree position, component, spec level) instance once per warm core, and
/// the spec linter (analysis/SpecLint.cpp) encodes the same constraints, so
/// both reason about exactly the formula DEDUCE asserts. Nothing is cached
/// here: a warm core asserts an instance once and keeps it across solves,
/// so an encoding happens about once per core and position, never per
/// query.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SMT_SPECCOMPILER_H
#define MORPHEUS_SMT_SPECCOMPILER_H

#include "lang/Spec.h"

#include <vector>
#include <z3++.h>

namespace morpheus {

/// Attribute variables (or constants) of one table-typed node.
struct NodeVars {
  z3::expr Row, Col, Group, NewCols, NewVals;

  z3::expr get(TableAttr A) const {
    switch (A) {
    case TableAttr::Row:
      return Row;
    case TableAttr::Col:
      return Col;
    case TableAttr::Group:
      return Group;
    case TableAttr::NewCols:
      return NewCols;
    case TableAttr::NewVals:
      return NewVals;
    }
    return Row;
  }
};

/// \p E with argument k's attributes read from \p Args[k] and the result's
/// from \p Result.
z3::expr compileExpr(z3::context &Ctx, const SpecExpr &E,
                     const std::vector<NodeVars> &Args,
                     const NodeVars &Result);

/// One atom, encoded like compileExpr.
z3::expr compileAtom(z3::context &Ctx, const SpecAtom &A,
                     const std::vector<NodeVars> &Args,
                     const NodeVars &Result);

/// The conjunction of \p F's atoms over \p Args and \p Result; `true` when
/// \p F has none.
z3::expr encodeSpec(z3::context &Ctx, const SpecFormula &F,
                    const std::vector<NodeVars> &Args, const NodeVars &Result);

/// The domain axioms of one table node: attributes nonnegative, at least
/// one column and group, every new column name is a new value, new column
/// names are column names.
z3::expr nodeAxioms(const NodeVars &N);

} // namespace morpheus

#endif // MORPHEUS_SMT_SPECCOMPILER_H
