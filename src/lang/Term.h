//===- lang/Term.h - First-order terms over value transformers --*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-order terms (grammar `t` of Figure 4) that fill the value holes of
/// program sketches. Terms are built from constants, column references and
/// applications of value transformers (the first-order components Λv).
/// Evaluation is context-dependent: predicates and mutate expressions are
/// evaluated per row; aggregate applications are evaluated over the rows of
/// the current group.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_LANG_TERM_H
#define MORPHEUS_LANG_TERM_H

#include "lang/ParamKind.h"
#include "table/Table.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace morpheus {

class ValueTransformer;

struct Term;
using TermPtr = std::shared_ptr<const Term>;

/// A first-order term. Immutable; shared between hypotheses.
struct Term {
  enum class Kind {
    Const,   ///< A literal cell value (Const rule of Fig. 13).
    ColRef,  ///< Field access `x.col` on the implicit row variable.
    ColsLit, ///< A literal list of column names (Cols rule).
    NameLit, ///< A fresh column name introduced by the enclosing component.
    App      ///< Application of a value transformer (App rule).
  };

  Kind K;
  Value ConstVal;                    // Const
  std::string Name;                  // ColRef / NameLit
  uint32_t NameId = 0;               // ColRef / NameLit: Name's interner id
  std::vector<std::string> Cols;     // ColsLit
  const ValueTransformer *Fn = nullptr; // App
  std::vector<TermPtr> Args;         // App

  static TermPtr constant(Value V);
  /// Name terms intern their name once, here; the overloads taking an id
  /// are for names the interner already holds (a Column's NameId).
  static TermPtr colRef(std::string Col);
  static TermPtr colRef(std::string Col, uint32_t ColId);
  static TermPtr colsLit(std::vector<std::string> Cols);
  static TermPtr nameLit(std::string Name);
  static TermPtr nameLit(std::string Name, uint32_t NameId);
  static TermPtr app(const ValueTransformer *Fn, std::vector<TermPtr> Args);

  /// Renders the term in R-like syntax (e.g. `age > 12`, `sum(n)`,
  /// `c(name, year)`).
  std::string toString() const;
};

/// Evaluation context for first-order terms.
///
/// \c RowIdx binds the implicit row variable of predicates and mutate
/// expressions; \c GroupRows lists the row indices of the group the current
/// row belongs to (aggregates reduce over it). For whole-table contexts
/// GroupRows spans all rows.
struct EvalContext {
  const Table *T = nullptr;
  size_t RowIdx = 0;
  const std::vector<size_t> *GroupRows = nullptr;
};

/// A first-order component (an element of Λv): comparison, arithmetic,
/// string or aggregate operator. Scalar operators fold argument values;
/// aggregate operators reduce a column over the context's group rows.
class ValueTransformer {
public:
  using ScalarFn =
      std::function<std::optional<Value>(const std::vector<Value> &)>;
  using AggregateFn =
      std::function<std::optional<Value>(const std::vector<Value> &)>;

  /// Creates a scalar operator with \p Arity arguments.
  ValueTransformer(std::string Name, unsigned Arity, CellType ResultType,
                   ScalarFn Fn, bool InfixPrint = false);

  /// Creates an aggregate operator reducing one column (\p Arity 0 for
  /// `n()` which counts rows and takes no column).
  static ValueTransformer makeAggregate(std::string Name, unsigned Arity,
                                        AggregateFn Fn);

  const std::string &name() const { return Name; }
  unsigned arity() const { return Arity; }
  bool isAggregate() const { return Aggregate; }
  bool printsInfix() const { return InfixPrint; }
  CellType resultType() const { return ResultType; }

  /// Applies the scalar operator to already-evaluated arguments.
  std::optional<Value> applyScalar(const std::vector<Value> &Args) const;

  /// Applies the aggregate operator to the cells of its column within the
  /// current group.
  std::optional<Value> applyAggregate(const std::vector<Value> &Column) const;

private:
  ValueTransformer() = default;

  std::string Name;
  unsigned Arity = 0;
  CellType ResultType = CellType::Num;
  bool Aggregate = false;
  bool InfixPrint = false;
  ScalarFn Scalar;
  AggregateFn Agg;
};

/// Evaluates \p T in context \p Ctx. Returns nullopt on a type error or a
/// reference to a column absent from the context table (candidate programs
/// routinely construct such terms; the synthesizer discards them).
std::optional<Value> evalTerm(const Term &T, const EvalContext &Ctx);

} // namespace morpheus

#endif // MORPHEUS_LANG_TERM_H
