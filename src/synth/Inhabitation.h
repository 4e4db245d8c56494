//===- synth/Inhabitation.h - Table-driven type inhabitation ----*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven type inhabitation (Section 7, Figure 13): enumerates the
/// well-typed first-order terms of a value-hole kind *with respect to
/// concrete tables*. The tables — obtained by partially evaluating the
/// sketch's table-typed subterms — finitize the universe of constants:
///
///  - Cols rule  : column subsets come from the child tables' schemas
///  - Const rule : comparison constants come from the referenced column's
///                 cells
///  - App rule   : operators come from the value-transformer library Λv,
///                 nested to a bounded depth
///  - Var/Lambda : the implicit row variable of predicates and mutate
///                 expressions
///
/// New-column-name holes draw from the *output* example's header (plus one
/// fresh name for columns consumed before the output), which is how partial
/// evaluation "drives enumerative search" (Section 1).
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SYNTH_INHABITATION_H
#define MORPHEUS_SYNTH_INHABITATION_H

#include "lang/Component.h"

#include <functional>

namespace morpheus {

/// Enumerates inhabitants of value-hole kinds, under fixed finitization
/// bounds. Its only state besides the library is the fresh-name terms it
/// has minted, one per hole sequence number, so a search interns each
/// fresh name once; like the search that owns it, an instance is used by
/// one thread at a time.
class Inhabitation {
public:
  explicit Inhabitation(const ComponentLibrary &Lib) : Lib(Lib) {}

  /// Calls \p Visit for each inhabitant of \p PK with respect to the
  /// concrete \p ChildTables of the hole's node and the example's
  /// \p Output table. \p HoleSeq distinguishes fresh names across holes.
  /// Stops early when Visit returns false; returns false iff stopped.
  bool enumerate(ParamKind PK, const std::vector<Table> &ChildTables,
                 const Table &Output, unsigned HoleSeq,
                 const std::function<bool(TermPtr)> &Visit) const;

private:
  bool enumCols(const std::vector<Table> &Tables, bool Ordered,
                const std::function<bool(TermPtr)> &Visit) const;
  bool enumColName(const std::vector<Table> &Tables,
                   const std::function<bool(TermPtr)> &Visit) const;
  bool enumNewName(const std::vector<Table> &Tables, const Table &Output,
                   unsigned HoleSeq,
                   const std::function<bool(TermPtr)> &Visit) const;
  bool enumPred(const std::vector<Table> &Tables,
                const std::function<bool(TermPtr)> &Visit) const;
  bool enumAgg(const std::vector<Table> &Tables,
               const std::function<bool(TermPtr)> &Visit) const;
  bool enumNumExpr(const std::vector<Table> &Tables,
                   const std::function<bool(TermPtr)> &Visit) const;

  const ComponentLibrary &Lib;
  /// FreshNames[HoleSeq]: the `tmp<HoleSeq>` name term, or null until the
  /// hole first asks for it.
  mutable std::vector<TermPtr> FreshNames;
};

} // namespace morpheus

#endif // MORPHEUS_SYNTH_INHABITATION_H
