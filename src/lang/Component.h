//===- lang/Component.h - Higher-order table transformers -------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The component abstraction of Definition 2. A TableTransformer is a
/// higher-order component X = (f, τ, φ): a name, a type signature (number
/// of table arguments plus the kinds of its first-order value parameters)
/// and per-level first-order specifications φ. The synthesizer treats
/// components entirely through this interface — adding a component requires
/// no synthesizer change, only an `apply` implementation and, optionally, a
/// spec and a header gate (`mayYield`); `true` is always a valid spec and a
/// valid gate.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_LANG_COMPONENT_H
#define MORPHEUS_LANG_COMPONENT_H

#include "lang/Spec.h"
#include "lang/Term.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace morpheus {

/// A higher-order table transformer (an element of ΛT).
class TableTransformer {
public:
  TableTransformer(std::string Name, unsigned NumTableArgs,
                   std::vector<ParamKind> ValueParams)
      : Name(std::move(Name)), NumTableArgs(NumTableArgs),
        ValueParams(std::move(ValueParams)), SpecId(nextSpecId()) {}
  virtual ~TableTransformer();

  TableTransformer(const TableTransformer &) = delete;
  TableTransformer &operator=(const TableTransformer &) = delete;

  const std::string &name() const { return Name; }
  unsigned numTableArgs() const { return NumTableArgs; }
  const std::vector<ParamKind> &valueParams() const { return ValueParams; }

  /// Evaluates the component on concrete table arguments and filled value
  /// parameters. Returns nullopt when the candidate instantiation is
  /// ill-formed for these tables (missing column, duplicate spread keys,
  /// type error in a term, ...); the synthesizer discards such candidates.
  virtual std::optional<Table>
  apply(const std::vector<Table> &Tables,
        const std::vector<TermPtr> &Args) const = 0;

  /// The header gate: could apply(Tables, Args) return a table whose
  /// schema() equals Want.schema() and whose numRows() equals
  /// Want.numRows()? The synthesizer asks it before running the kernel on
  /// every fill of a sketch's last hole, where almost every candidate's
  /// header is wrong, and skips the kernel on `false`.
  ///
  /// Contract for component authors: return `false` only when no such
  /// table can come back; when unsure, return `true`. An over-eager
  /// `false` silently loses programs (`morpheus analyze` flags one on the
  /// tables it enumerates). Read only headers: the schemas, row counts and
  /// grouping columns of \p Tables and \p Want, and the names, ids and
  /// kinds of \p Args' terms, never cells, so the gate stays far cheaper
  /// than apply. The default says `true`, so a component that does not
  /// override it behaves exactly as if there were no gate.
  virtual bool mayYield(const std::vector<Table> &Tables,
                        const std::vector<TermPtr> &Args,
                        const Table &Want) const {
    (void)Tables;
    (void)Args;
    (void)Want;
    return true;
  }

  /// The first-order specification of this component at \p Level. Defaults
  /// to `true` (Definition 2: true is always a valid spec).
  const SpecFormula &spec(SpecLevel Level) const {
    return Level == SpecLevel::Spec1 ? Spec1 : Spec2;
  }
  /// groupFree(spec(Level)), computed once by setSpec: what deduction's
  /// concrete fast path evaluates.
  const SpecFormula &groupFreeSpec(SpecLevel Level) const {
    return Level == SpecLevel::Spec1 ? GroupFree1 : GroupFree2;
  }
  void setSpec(SpecLevel Level, SpecFormula F) {
    (Level == SpecLevel::Spec1 ? GroupFree1 : GroupFree2) = groupFree(F);
    (Level == SpecLevel::Spec1 ? Spec1 : Spec2) = std::move(F);
    SpecId = nextSpecId();
  }

  /// Identifies this component's current (Spec1, Spec2) pair for the whole
  /// process: drawn from a global counter at construction and again on
  /// every setSpec, so it is never reused — unlike the object's address,
  /// which a later component may occupy, or its name, which another
  /// component may share. State that outlives one solve (the guarded spec
  /// instances of a warm Z3 core, smt/Deduce.cpp) and deduction's verdict
  /// key name a component by it.
  uint64_t specId() const { return SpecId; }

private:
  static uint64_t nextSpecId();

  std::string Name;
  unsigned NumTableArgs;
  std::vector<ParamKind> ValueParams;
  SpecFormula Spec1, Spec2;
  SpecFormula GroupFree1, GroupFree2;
  uint64_t SpecId;
};

/// A component library Λ = ΛT ∪ Λv (Definition 3). Owns nothing; the
/// standard library in src/interp owns the actual objects.
struct ComponentLibrary {
  std::vector<const TableTransformer *> TableTransformers;
  std::vector<const ValueTransformer *> ValueTransformers;

  const TableTransformer *findTable(std::string_view Name) const;
  const ValueTransformer *findValue(std::string_view Name) const;
};

} // namespace morpheus

#endif // MORPHEUS_LANG_COMPONENT_H
