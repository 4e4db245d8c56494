//===- synth/Inhabitation.cpp - Table-driven type inhabitation ---------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Inhabitation.h"

#include "table/Hash.h"
#include "table/TableUtils.h"

#include <algorithm>
#include <unordered_set>

using namespace morpheus;

namespace {

/// Maximum size of a column subset for `cols` holes.
constexpr size_t MaxColsSubset = 6;
/// Hard cap on enumerated candidates per hole.
constexpr size_t MaxCandidatesPerHole = 50000;
/// Orderings are enumerated for ColsOrdered subsets up to this size (k!
/// variants per subset); larger subsets fall back to schema order.
constexpr size_t MaxPermutedColsSubset = 3;
/// The terms() memo is dropped when it would hold more terms than this.
/// Measured: a perfbench `search` solve holds at most 4.9k terms and a
/// 20 s solve of C5-10 or C9-01 at most 33k; only C7-01, the suite's
/// deepest search, reaches the cap (once in 20 s), and its peak RSS stays
/// below that of a search without the memo.
constexpr size_t MaxListedTerms = size_t(1) << 16;

/// Appends a header's (NameId, Type) words to \p Key, after its width.
void appendHeader(std::vector<uint64_t> &Key, const Schema &S) {
  Key.push_back(S.size());
  for (const Column &C : S.columns())
    Key.push_back(uint64_t(C.NameId) << 1 |
                  uint64_t(C.Type == CellType::Str));
}

/// Inserts \p Id into the sorted vector \p Ids; false if already present.
bool insertSorted(std::vector<uint32_t> &Ids, uint32_t Id) {
  auto It = std::lower_bound(Ids.begin(), Ids.end(), Id);
  if (It != Ids.end() && *It == Id)
    return false;
  Ids.insert(It, Id);
  return true;
}

/// Combined (name, type) column view over several tables, deduplicated by
/// name in table/schema order.
std::vector<Column> combinedColumns(const std::vector<Table> &Tables) {
  std::vector<Column> Out;
  std::vector<uint32_t> Seen;
  for (const Table &T : Tables)
    for (const Column &C : T.schema().columns())
      if (insertSorted(Seen, C.NameId))
        Out.push_back(C);
  return Out;
}

/// Distinct cells of the named column across all tables that have it.
/// Dedupe is by (canonical token, type), like distinctColumnValues.
std::vector<Value> combinedColumnValues(const std::vector<Table> &Tables,
                                        const std::string &Name) {
  std::vector<Value> Out;
  std::unordered_set<uint64_t> Seen;
  for (const Table &T : Tables) {
    if (!T.schema().contains(Name))
      continue;
    for (const Value &V : distinctColumnValues(T, Name))
      if (Seen.insert(V.typedToken()).second)
        Out.push_back(V);
  }
  return Out;
}

/// Checks whether a value transformer is a comparison usable on \p CT
/// operands. Strings compare with ==/!= only: R allows lexicographic <,
/// but the evaluation tasks never need it and it doubles the space.
bool comparisonAppliesTo(const ValueTransformer &Op, CellType CT) {
  return CT == CellType::Num || Op.name() == "==" || Op.name() == "!=";
}

} // namespace

size_t Inhabitation::KeyHash::operator()(
    const std::vector<uint64_t> &Key) const {
  uint64_t H = Key.size();
  for (uint64_t W : Key)
    H = hashing::fold(H, W);
  return size_t(H);
}

TermListPtr Inhabitation::terms(ParamKind PK,
                                const std::vector<const Table *> &ChildTables,
                                const Table &Output, unsigned HoleSeq) {
  auto Build = [&] {
    std::vector<Table> Tables;
    for (const Table *T : ChildTables)
      Tables.push_back(*T);
    auto List = std::make_shared<TermList>();
    enumerate(PK, Tables, Output, HoleSeq, [&](TermPtr T) {
      List->Leaves.push_back(Hypothesis::filled(PK, T));
      List->Terms.push_back(std::move(T));
      return true;
    });
    return List;
  };
  // Pred constants come from cells: two universes with one header rarely
  // share a list, and a memo of them grows with every table seen.
  if (PK == ParamKind::Pred)
    return Build();

  // The universe key: kind, hole sequence (NewName only), then each child
  // header and for NewName the output's header, each after its width.
  bool Named = PK == ParamKind::NewName;
  Key.clear();
  Key.push_back(uint64_t(PK));
  Key.push_back(Named ? HoleSeq : 0);
  Key.push_back(ChildTables.size());
  for (const Table *T : ChildTables)
    appendHeader(Key, T->schema());
  if (Named)
    appendHeader(Key, Output.schema());
  auto It = Lists.find(Key);
  if (It != Lists.end())
    return It->second;

  TermListPtr List = Build();
  if (ListedTerms + List->Terms.size() > MaxListedTerms) {
    // Callers hold their lists, so dropping the memo frees only lists no
    // fill is iterating.
    Lists.clear();
    ListedTerms = 0;
  }
  ListedTerms += List->Terms.size();
  Lists.emplace(Key, List);
  return List;
}

bool Inhabitation::enumerate(ParamKind PK,
                             const std::vector<Table> &ChildTables,
                             const Table &Output, unsigned HoleSeq,
                             const std::function<bool(TermPtr)> &Visit) const {
  switch (PK) {
  case ParamKind::Cols:
    return enumCols(ChildTables, /*Ordered=*/false, Visit);
  case ParamKind::ColsOrdered:
    return enumCols(ChildTables, /*Ordered=*/true, Visit);
  case ParamKind::ColName:
    return enumColName(ChildTables, Visit);
  case ParamKind::NewName:
    return enumNewName(ChildTables, Output, HoleSeq, Visit);
  case ParamKind::Pred:
    return enumPred(ChildTables, Visit);
  case ParamKind::Agg:
    return enumAgg(ChildTables, Visit);
  case ParamKind::NumExpr:
    return enumNumExpr(ChildTables, Visit);
  }
  return true;
}

bool Inhabitation::enumCols(const std::vector<Table> &Tables, bool Ordered,
                            const std::function<bool(TermPtr)> &Visit) const {
  // The Cols rule enumerates P([1,n]); we emit subsets in schema order, by
  // increasing size, capped at MaxColsSubset (DESIGN.md §5 finitization).
  // Order-sensitive holes (select, arrange) additionally get every
  // ordering of small subsets.
  std::vector<Column> Cols = combinedColumns(Tables);
  size_t N = Cols.size();
  size_t Emitted = 0;
  size_t MaxSize = std::min(MaxColsSubset, N);
  std::vector<size_t> Pick;
  // Iterative enumeration of k-subsets in lexicographic order.
  for (size_t K = 1; K <= MaxSize; ++K) {
    Pick.assign(K, 0);
    for (size_t I = 0; I != K; ++I)
      Pick[I] = I;
    while (true) {
      std::vector<size_t> Perm = Pick;
      bool Permute = Ordered && K <= MaxPermutedColsSubset;
      do {
        std::vector<std::string> Names;
        Names.reserve(K);
        for (size_t I : Perm)
          Names.push_back(Cols[I].Name);
        if (++Emitted > MaxCandidatesPerHole)
          return true;
        if (!Visit(Term::colsLit(std::move(Names))))
          return false;
      } while (Permute && std::next_permutation(Perm.begin(), Perm.end()));
      // Advance to the next k-subset.
      size_t I = K;
      while (I-- > 0) {
        if (Pick[I] != I + N - K) {
          ++Pick[I];
          for (size_t J = I + 1; J != K; ++J)
            Pick[J] = Pick[J - 1] + 1;
          break;
        }
        if (I == 0)
          goto nextK;
      }
    }
  nextK:;
  }
  return true;
}

bool Inhabitation::enumColName(
    const std::vector<Table> &Tables,
    const std::function<bool(TermPtr)> &Visit) const {
  for (const Column &C : combinedColumns(Tables))
    if (!Visit(Term::colRef(C.Name, C.NameId)))
      return false;
  return true;
}

bool Inhabitation::enumNewName(
    const std::vector<Table> &Tables, const Table &Output, unsigned HoleSeq,
    const std::function<bool(TermPtr)> &Visit) const {
  // Candidate names: output headers not present in the child tables (a new
  // column surviving to the output must carry one of these), plus one
  // fresh name for columns consumed by a later component (e.g. the united
  // key column of motivating Example 1 that spread consumes).
  std::vector<uint32_t> Existing;
  for (const Column &C : combinedColumns(Tables))
    Existing.push_back(C.NameId);
  std::sort(Existing.begin(), Existing.end());
  for (const Column &C : Output.schema().columns())
    if (!std::binary_search(Existing.begin(), Existing.end(), C.NameId))
      if (!Visit(Term::nameLit(C.Name, C.NameId)))
        return false;
  if (FreshNames.size() <= HoleSeq)
    FreshNames.resize(HoleSeq + 1);
  if (!FreshNames[HoleSeq])
    FreshNames[HoleSeq] = Term::nameLit("tmp" + std::to_string(HoleSeq));
  return Visit(FreshNames[HoleSeq]);
}

bool Inhabitation::enumPred(const std::vector<Table> &Tables,
                            const std::function<bool(TermPtr)> &Visit) const {
  // Lambda + App + Const + Var rules: \row. op(row.col, const) where op is
  // a comparison from Λv and const occurs in the column (Section 7 argues
  // this finitization preserves example-equivalence).
  const auto &Comparisons = [&] {
    std::vector<const ValueTransformer *> Out;
    for (const ValueTransformer *V : Lib.ValueTransformers)
      if (!V->isAggregate() && V->arity() == 2 && V->resultType() == CellType::Num &&
          (V->name() == "==" || V->name() == "!=" || V->name() == "<" ||
           V->name() == ">" || V->name() == "<=" || V->name() == ">="))
        Out.push_back(V);
    return Out;
  }();
  size_t Emitted = 0;
  for (const Column &C : combinedColumns(Tables)) {
    std::vector<Value> Consts = combinedColumnValues(Tables, C.Name);
    for (const ValueTransformer *Op : Comparisons) {
      if (!comparisonAppliesTo(*Op, C.Type))
        continue;
      for (const Value &V : Consts) {
        if (++Emitted > MaxCandidatesPerHole)
          return true;
        TermPtr Pred = Term::app(
            Op, {Term::colRef(C.Name, C.NameId), Term::constant(V)});
        if (!Visit(std::move(Pred)))
          return false;
      }
    }
  }
  return true;
}

bool Inhabitation::enumAgg(const std::vector<Table> &Tables,
                           const std::function<bool(TermPtr)> &Visit) const {
  for (const ValueTransformer *Op : Lib.ValueTransformers) {
    if (!Op->isAggregate())
      continue;
    if (Op->arity() == 0) {
      if (!Visit(Term::app(Op, {})))
        return false;
      continue;
    }
    for (const Column &C : combinedColumns(Tables)) {
      if (C.Type != CellType::Num)
        continue;
      if (!Visit(Term::app(Op, {Term::colRef(C.Name, C.NameId)})))
        return false;
    }
  }
  return true;
}

bool Inhabitation::enumNumExpr(
    const std::vector<Table> &Tables,
    const std::function<bool(TermPtr)> &Visit) const {
  // Operands: numeric columns and aggregates over them (depth-1 App).
  std::vector<TermPtr> Operands;
  for (const Column &C : combinedColumns(Tables))
    if (C.Type == CellType::Num)
      Operands.push_back(Term::colRef(C.Name, C.NameId));
  size_t NumColRefs = Operands.size();
  for (const ValueTransformer *Op : Lib.ValueTransformers) {
    if (!Op->isAggregate())
      continue;
    if (Op->arity() == 0) {
      Operands.push_back(Term::app(Op, {}));
      continue;
    }
    for (size_t I = 0; I != NumColRefs; ++I)
      Operands.push_back(Term::app(Op, {Operands[I]}));
  }

  // Depth-2 App: plain aggregates first (mutate(total = sum(x))), then
  // arithmetic combinations of two operands.
  size_t Emitted = 0;
  for (size_t I = NumColRefs; I != Operands.size(); ++I)
    if (!Visit(Operands[I]))
      return false;

  std::vector<const ValueTransformer *> Arith;
  for (const ValueTransformer *V : Lib.ValueTransformers)
    if (!V->isAggregate() &&
        (V->name() == "+" || V->name() == "-" || V->name() == "*" ||
         V->name() == "/"))
      Arith.push_back(V);
  for (const ValueTransformer *Op : Arith) {
    for (const TermPtr &L : Operands) {
      for (const TermPtr &R : Operands) {
        if (L == R && (Op->name() == "-" || Op->name() == "/"))
          continue; // x-x / x/x are never needed
        if (++Emitted > MaxCandidatesPerHole)
          return true;
        if (!Visit(Term::app(Op, {L, R})))
          return false;
      }
    }
  }
  return true;
}
