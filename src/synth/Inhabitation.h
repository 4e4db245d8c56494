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
/// Only the Const rule reads cells. Every other kind's inhabitants are a
/// function of the child tables' headers (plus, for new names, the
/// output's header and the hole's sequence number), so the search asks
/// `terms()` for a shared list per such *hole universe* and enumerates
/// it once per solve, instead of rebuilding the same terms and filled
/// leaves for every fill.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SYNTH_INHABITATION_H
#define MORPHEUS_SYNTH_INHABITATION_H

#include "lang/Hypothesis.h"

#include <functional>
#include <memory>
#include <unordered_map>

namespace morpheus {

/// The inhabitants of one hole universe, in enumeration order, each with
/// the `Hypothesis::filled` leaf that fills the hole with it. Immutable
/// once built; the search shares the leaves across every fill.
struct TermList {
  std::vector<TermPtr> Terms;
  std::vector<HypPtr> Leaves; ///< Leaves[I] fills the hole with Terms[I]
};
using TermListPtr = std::shared_ptr<const TermList>;

/// Enumerates inhabitants of value-hole kinds, under fixed finitization
/// bounds. Besides the library it keeps the fresh-name terms it has
/// minted, one per hole sequence number, so a search interns each fresh
/// name once, and the memo of `terms()`. Like the search that owns it, an
/// instance is used by one thread at a time.
class Inhabitation {
public:
  explicit Inhabitation(const ComponentLibrary &Lib) : Lib(Lib) {}

  /// The inhabitants of \p PK as a list, with one filled leaf each, in
  /// `enumerate`'s order. Lists of every kind but Pred are memoized on the
  /// hole universe: the kind, the exact (NameId, Type) header of each
  /// child table, and for NewName the output's header and \p HoleSeq. Pred
  /// lists read cells, so they are built afresh on every call. Hold the
  /// returned pointer while iterating: the memo may be dropped by a later
  /// call.
  TermListPtr terms(ParamKind PK,
                    const std::vector<const Table *> &ChildTables,
                    const Table &Output, unsigned HoleSeq);

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

  struct KeyHash {
    size_t operator()(const std::vector<uint64_t> &Key) const;
  };

  const ComponentLibrary &Lib;
  /// FreshNames[HoleSeq]: the `tmp<HoleSeq>` name term, or null until the
  /// hole first asks for it.
  mutable std::vector<TermPtr> FreshNames;
  /// The memo of terms(), keyed on the hole universe's words (built in
  /// terms()), and the number of terms it holds in all.
  std::unordered_map<std::vector<uint64_t>, TermListPtr, KeyHash> Lists;
  size_t ListedTerms = 0;
  /// Scratch for the lookup key, so a memo hit allocates nothing.
  std::vector<uint64_t> Key;
};

} // namespace morpheus

#endif // MORPHEUS_SYNTH_INHABITATION_H
