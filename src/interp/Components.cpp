//===- interp/Components.cpp - tidyr/dplyr table transformers ----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// All kernels run against the columnar Table engine: a verb that keeps a
// column's cells intact aliases the column handle (copy-on-write) instead
// of copying cells, and verbs that reorder or drop rows gather each column
// through an index vector. Row-key maps (spread, distinct) are built over
// interned canonical tokens, so key probes are integer hashes.
//
//===----------------------------------------------------------------------===//

#include "interp/Components.h"

#include "interp/ValueOps.h"
#include "spec/StdSpecs.h"
#include "table/TableUtils.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <unordered_map>

using namespace morpheus;

namespace {

/// The literal column list of a ColsLit term; null otherwise.
const std::vector<std::string> *colsOf(const TermPtr &T) {
  if (!T || T->K != Term::Kind::ColsLit)
    return nullptr;
  return &T->Cols;
}

/// Extracts a single column/new-column name term (its Name and NameId);
/// null otherwise.
const Term *nameOf(const TermPtr &T) {
  if (T && (T->K == Term::Kind::NameLit || T->K == Term::Kind::ColRef))
    return T.get();
  return nullptr;
}

/// The sorted name ids of \p Cols, if every name is a distinct column of
/// \p T; nullopt otherwise.
std::optional<std::vector<uint32_t>>
distinctColumnIds(const Table &T, const std::vector<std::string> &Cols) {
  if (Cols.empty())
    return std::nullopt;
  std::vector<uint32_t> Ids;
  Ids.reserve(Cols.size());
  for (const std::string &C : Cols) {
    std::optional<size_t> I = T.schema().indexOf(C);
    if (!I)
      return std::nullopt;
    Ids.push_back(T.schema()[*I].NameId);
  }
  std::sort(Ids.begin(), Ids.end());
  if (std::adjacent_find(Ids.begin(), Ids.end()) != Ids.end())
    return std::nullopt;
  return Ids;
}

/// The interned text A.toString() + "_" + B.toString(). Unite's cells
/// repeat heavily across candidates, so a fixed-size per-thread memo maps
/// each cell pair to its id and only a miss builds the text and interns it.
/// A cell is keyed by its string id or its number's bits (not by a number's
/// canonical token, which would intern a printed number the text below
/// never needs). Direct-mapped and overwritten on collision, so a
/// long-lived worker's memo stays 48 KiB.
uint32_t unitedId(const Value &A, const Value &B) {
  auto KeyOf = [](const Value &V) {
    if (V.isStr())
      return uint64_t(V.strId());
    double D = V.num();
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    return Bits;
  };
  struct Entry {
    uint64_t A, B;
    uint32_t Id;   // id + 1; 0 marks an empty slot
    uint32_t Tags; // bit 0: A is a string, bit 1: B is a string
  };
  constexpr unsigned LogSlots = 11; // 2048 x 24 B
  static thread_local Entry Memo[size_t(1) << LogSlots] = {};
  uint64_t KA = KeyOf(A), KB = KeyOf(B);
  uint32_t Tags = uint32_t(A.isStr()) | uint32_t(B.isStr()) << 1;
  uint64_t H = (KA ^ (KB * 0x9e3779b97f4a7c15ULL) ^ Tags) *
               0xbf58476d1ce4e5b9ULL;
  Entry &E = Memo[H >> (64 - LogSlots)];
  if (E.Id && E.A == KA && E.B == KB && E.Tags == Tags)
    return E.Id - 1;
  uint32_t Id = Value::str(A.toString() + "_" + B.toString()).strId();
  E = {KA, KB, Id + 1, Tags};
  return Id;
}

/// The ids of string \p Id's two pieces, split at its first
/// non-alphanumeric character (tidyr's default separator behaviour), or
/// nullopt unless it splits into exactly two non-empty pieces. Memoized
/// per thread by the cell's id like unitedId, so only a miss interns the
/// pieces; 2048 slots x 16 B.
std::optional<std::pair<uint32_t, uint32_t>> separatedIds(uint32_t Id) {
  struct Entry {
    uint32_t Key; // id + 1; 0 marks an empty slot
    uint32_t First, Second;
    bool Splits;
  };
  constexpr unsigned LogSlots = 11;
  static thread_local Entry Memo[size_t(1) << LogSlots] = {};
  Entry &E = Memo[(Id * 0x9e3779b9u) >> (32 - LogSlots)];
  if (E.Key != Id + 1) {
    E = {Id + 1, 0, 0, false};
    std::string_view S = StringInterner::global().text(Id);
    for (size_t I = 0; I != S.size(); ++I) {
      if (!std::isalnum(static_cast<unsigned char>(S[I])) && S[I] != '.') {
        if (I != 0 && I + 1 != S.size())
          E = {Id + 1, Value::str(S.substr(0, I)).strId(),
               Value::str(S.substr(I + 1)).strId(), true};
        break;
      }
    }
  }
  if (!E.Splits)
    return std::nullopt;
  return std::make_pair(E.First, E.Second);
}

/// Grouping-aware per-row evaluation helper: maps each row index to the row
/// indices of its group.
std::vector<const std::vector<size_t> *>
rowToGroup(const Table &T, const std::vector<std::vector<size_t>> &Groups) {
  std::vector<const std::vector<size_t> *> Map(T.numRows(), nullptr);
  for (const std::vector<size_t> &G : Groups)
    for (size_t R : G)
      Map[R] = &G;
  return Map;
}

/// Wraps freshly built cells in a shared column handle.
ColumnPtr ownCol(ColumnData &&Cells) {
  return std::make_shared<ColumnData>(std::move(Cells));
}

/// Gathers \p Src through \p Idx into a new column.
ColumnPtr gatherCol(const ColumnData &Src, const std::vector<size_t> &Idx) {
  ColumnData Out;
  Out.reserve(Idx.size());
  for (size_t I : Idx)
    Out.push_back(Src[I]);
  return ownCol(std::move(Out));
}

/// A table transformer defined by a kernel lambda and, optionally, a header
/// gate lambda; all standard components use it.
class LambdaTransformer final : public TableTransformer {
public:
  using ApplyFn = std::function<std::optional<Table>(
      const std::vector<Table> &, const std::vector<TermPtr> &)>;
  using GateFn = std::function<bool(const std::vector<Table> &,
                                    const std::vector<TermPtr> &,
                                    const Table &)>;

  LambdaTransformer(std::string Name, unsigned NumTableArgs,
                    std::vector<ParamKind> Params, ApplyFn Fn, GateFn Gate)
      : TableTransformer(std::move(Name), NumTableArgs, std::move(Params)),
        Fn(std::move(Fn)), Gate(std::move(Gate)) {}

  std::optional<Table>
  apply(const std::vector<Table> &Tables,
        const std::vector<TermPtr> &Args) const override {
    if (!arityMatches(Tables, Args))
      return std::nullopt;
    return Fn(Tables, Args);
  }

  bool mayYield(const std::vector<Table> &Tables,
                const std::vector<TermPtr> &Args,
                const Table &Want) const override {
    return arityMatches(Tables, Args) && (!Gate || Gate(Tables, Args, Want));
  }

private:
  bool arityMatches(const std::vector<Table> &Tables,
                    const std::vector<TermPtr> &Args) const {
    return Tables.size() == numTableArgs() &&
           Args.size() == valueParams().size();
  }

  ApplyFn Fn;
  GateFn Gate;
};

//===----------------------------------------------------------------------===//
// Output headers
//
// Each verb derives its output header (column names, ids and types, in
// order) from its arguments' headers and terms in one function below. The
// kernel builds its result under that header, and the verb's gate
// (TableTransformer::mayYield) compares the same header with the wanted
// table's, so a gate cannot drift from its kernel. A header function
// returns nullopt exactly where the kernel rejects a call for header
// reasons (a missing or clashing column, a full-width select, ...).
//===----------------------------------------------------------------------===//

/// An output header and the input columns the kernel fills it from, by
/// role: select's kept columns, summarise's key columns, separate's split
/// column, unite's two joined columns.
struct Header {
  Schema Out;
  std::vector<size_t> Idx;
};

/// gather: the kept columns, the gathered columns and the value column's
/// type (string when the gathered types mix, as tidyr coerces).
struct GatherHeader {
  Schema Out;
  std::vector<size_t> KeepIdx, GatherIdx;
  bool Mixed = false;
};

std::optional<GatherHeader>
gatherHeader(const Table &T, const Term &KeyName, const Term &ValName,
             const std::vector<std::string> &GatherCols) {
  std::optional<std::vector<uint32_t>> Gathered =
      distinctColumnIds(T, GatherCols);
  if (!Gathered || GatherCols.size() < 2 || GatherCols.size() > T.numCols())
    return std::nullopt;
  if (T.schema().contains(KeyName.Name) || T.schema().contains(ValName.Name) ||
      KeyName.NameId == ValName.NameId)
    return std::nullopt;

  GatherHeader H;
  for (size_t I = 0; I != T.numCols(); ++I) {
    if (std::binary_search(Gathered->begin(), Gathered->end(),
                           T.schema()[I].NameId))
      H.GatherIdx.push_back(I);
    else
      H.KeepIdx.push_back(I);
  }
  CellType ValType = T.schema()[H.GatherIdx.front()].Type;
  for (size_t I : H.GatherIdx)
    if (T.schema()[I].Type != ValType)
      H.Mixed = true;
  if (H.Mixed)
    ValType = CellType::Str;

  std::vector<Column> Cols;
  for (size_t I : H.KeepIdx)
    Cols.push_back(T.schema()[I]);
  Cols.push_back({KeyName.Name, CellType::Str, KeyName.NameId});
  Cols.push_back({ValName.Name, ValType, ValName.NameId});
  H.Out = Schema(std::move(Cols));
  return H;
}

/// spread: the key and value columns, and the id columns (every other
/// column, in order) that lead the output header. The columns after them
/// are named by the key column's distinct cells, so only their type (the
/// value column's) is a header fact.
struct SpreadHeader {
  size_t KeyIdx, ValIdx;
  std::vector<size_t> IdIdx;
};

std::optional<SpreadHeader> spreadHeader(const Table &T,
                                         const std::string &Key,
                                         const std::string &Val) {
  std::optional<size_t> KeyIdx = T.schema().indexOf(Key);
  std::optional<size_t> ValIdx = T.schema().indexOf(Val);
  if (!KeyIdx || !ValIdx || *KeyIdx == *ValIdx || T.numRows() == 0)
    return std::nullopt;
  SpreadHeader H{*KeyIdx, *ValIdx, {}};
  for (size_t I = 0; I != T.numCols(); ++I)
    if (I != *KeyIdx && I != *ValIdx)
      H.IdIdx.push_back(I);
  return H;
}

std::optional<Header> separateHeader(const Table &T, const std::string &Col,
                                     const Term &Into1, const Term &Into2) {
  std::optional<size_t> Idx = T.schema().indexOf(Col);
  if (!Idx || T.schema()[*Idx].Type != CellType::Str)
    return std::nullopt;
  if (Into1.NameId == Into2.NameId)
    return std::nullopt;
  for (size_t I = 0; I != T.numCols(); ++I) {
    if (I == *Idx)
      continue;
    if (T.schema()[I].NameId == Into1.NameId ||
        T.schema()[I].NameId == Into2.NameId)
      return std::nullopt;
  }
  std::vector<Column> Cols;
  for (size_t I = 0; I != T.numCols(); ++I) {
    if (I == *Idx) {
      Cols.push_back({Into1.Name, CellType::Str, Into1.NameId});
      Cols.push_back({Into2.Name, CellType::Str, Into2.NameId});
    } else {
      Cols.push_back(T.schema()[I]);
    }
  }
  return Header{Schema(std::move(Cols)), {*Idx}};
}

std::optional<Header> uniteHeader(const Table &T, const Term &NewName,
                                  const std::string &C1,
                                  const std::string &C2) {
  std::optional<size_t> I1 = T.schema().indexOf(C1);
  std::optional<size_t> I2 = T.schema().indexOf(C2);
  if (!I1 || !I2 || *I1 == *I2)
    return std::nullopt;
  for (size_t I = 0; I != T.numCols(); ++I)
    if (I != *I1 && I != *I2 && T.schema()[I].NameId == NewName.NameId)
      return std::nullopt;
  std::vector<Column> Cols;
  for (size_t I = 0; I != T.numCols(); ++I) {
    if (I == *I1)
      Cols.push_back({NewName.Name, CellType::Str, NewName.NameId});
    else if (I != *I2)
      Cols.push_back(T.schema()[I]);
  }
  return Header{Schema(std::move(Cols)), {*I1, *I2}};
}

std::optional<Header> selectHeader(const Table &T,
                                   const std::vector<std::string> &Cols) {
  // Keeping every column is never useful in an example-driven search and
  // Table 2 relies on it: the spec's col(y) < col(x) is sound only if the
  // kernel rejects full-width selects (found by `morpheus analyze`).
  if (!distinctColumnIds(T, Cols) || Cols.size() == T.numCols())
    return std::nullopt;
  Header H;
  std::vector<Column> NewCols;
  for (const std::string &C : Cols) {
    size_t I = *T.schema().indexOf(C);
    NewCols.push_back(T.schema()[I]);
    H.Idx.push_back(I);
  }
  H.Out = Schema(std::move(NewCols));
  return H;
}

/// group_by keeps T's header; this is its header-level precondition.
bool groupByAccepts(const Table &T, const std::vector<std::string> &Cols) {
  // Regrouping a grouped frame is never needed.
  return !T.isGrouped() && Cols.size() < T.numCols() &&
         distinctColumnIds(T, Cols);
}

/// summarise: the grouping columns, then the new numeric column.
std::optional<Header> summariseHeader(const Table &T, const Term &NewName) {
  Header H;
  std::vector<Column> Cols;
  for (const std::string &G : T.groupCols()) {
    std::optional<size_t> I = T.schema().indexOf(G);
    if (!I || T.schema()[*I].NameId == NewName.NameId)
      return std::nullopt;
    H.Idx.push_back(*I);
    Cols.push_back(T.schema()[*I]);
  }
  Cols.push_back({NewName.Name, CellType::Num, NewName.NameId});
  H.Out = Schema(std::move(Cols));
  return H;
}

/// mutate: T's header plus the new numeric column.
std::optional<Schema> mutateHeader(const Table &T, const Term &NewName) {
  if (T.schema().contains(NewName.Name) || T.numRows() == 0)
    return std::nullopt;
  Schema S = T.schema();
  S.append({NewName.Name, CellType::Num, NewName.NameId});
  return S;
}

//===----------------------------------------------------------------------===//
// tidyr verbs
//===----------------------------------------------------------------------===//

std::optional<Table> applyGather(const Table &T, const Term &KeyName,
                                 const Term &ValName,
                                 const std::vector<std::string> &GatherCols) {
  std::optional<GatherHeader> H =
      gatherHeader(T, KeyName, ValName, GatherCols);
  if (!H)
    return std::nullopt;
  const std::vector<size_t> &KeepIdx = H->KeepIdx, &GatherIdx = H->GatherIdx;
  const bool Mixed = H->Mixed;

  size_t G = GatherIdx.size(), NOut = T.numRows() * G;
  std::vector<ColumnPtr> Out;
  Out.reserve(H->Out.size());
  // Kept columns: each input cell repeats once per gathered column.
  for (size_t I : KeepIdx) {
    const ColumnData &Src = T.col(I);
    ColumnData Cells;
    Cells.reserve(NOut);
    for (size_t R = 0; R != T.numRows(); ++R)
      for (size_t K = 0; K != G; ++K)
        Cells.push_back(Src[R]);
    Out.push_back(ownCol(std::move(Cells)));
  }
  // Key column: the gathered column names cycle, as cells of their ids.
  std::vector<Value> KeyVals;
  KeyVals.reserve(G);
  for (size_t I : GatherIdx)
    KeyVals.push_back(Value::strOfId(T.schema()[I].NameId));
  ColumnData KeyCells;
  KeyCells.reserve(NOut);
  for (size_t R = 0; R != T.numRows(); ++R)
    for (size_t K = 0; K != G; ++K)
      KeyCells.push_back(KeyVals[K]);
  Out.push_back(ownCol(std::move(KeyCells)));
  // Value column: the gathered cells interleave. Mixed columns coerce to
  // string: a cell's canonical token is the id of its printed form.
  ColumnData ValCells;
  ValCells.reserve(NOut);
  for (size_t R = 0; R != T.numRows(); ++R)
    for (size_t I : GatherIdx) {
      const Value &V = T.at(R, I);
      ValCells.push_back(Mixed ? Value::strOfId(V.canonicalToken()) : V);
    }
  Out.push_back(ownCol(std::move(ValCells)));
  return Table(std::move(H->Out), std::move(Out), NOut);
}

/// Rows and width follow from the number of gathered columns alone, so
/// they are tested before the header is built.
bool gatherMayYield(const Table &T, const Term &KeyName, const Term &ValName,
                    const std::vector<std::string> &GatherCols,
                    const Table &Want) {
  if (T.numRows() * GatherCols.size() != Want.numRows() ||
      T.numCols() + 2 != Want.numCols() + GatherCols.size())
    return false;
  std::optional<GatherHeader> H =
      gatherHeader(T, KeyName, ValName, GatherCols);
  return H && H->Out == Want.schema();
}

std::optional<Table> applySpread(const Table &T, const std::string &Key,
                                 const std::string &Val) {
  std::optional<SpreadHeader> H = spreadHeader(T, Key, Val);
  if (!H)
    return std::nullopt;
  const std::vector<size_t> &IdIdx = H->IdIdx;
  const size_t KeyIdx = H->KeyIdx, ValIdx = H->ValIdx;

  // Distinct key values become columns, in sorted text order (tidyr
  // sorts). The canonical token's text is exactly the cell's printed form,
  // and the token doubles as the new column's name id.
  StringInterner &Pool = StringInterner::global();
  std::vector<uint32_t> KeyTokens;
  KeyTokens.reserve(T.numRows());
  for (const Value &V : T.col(KeyIdx))
    KeyTokens.push_back(V.canonicalToken());
  std::vector<uint32_t> KeyNames(KeyTokens);
  std::sort(KeyNames.begin(), KeyNames.end());
  KeyNames.erase(std::unique(KeyNames.begin(), KeyNames.end()),
                 KeyNames.end());
  std::sort(KeyNames.begin(), KeyNames.end(), [&](uint32_t A, uint32_t B) {
    return Pool.text(A) < Pool.text(B);
  });
  // New columns must not collide with surviving columns.
  for (uint32_t K : KeyNames)
    for (size_t I : IdIdx)
      if (T.schema()[I].NameId == K)
        return std::nullopt;

  std::vector<Column> Cols;
  for (size_t I : IdIdx)
    Cols.push_back(T.schema()[I]);
  std::unordered_map<uint32_t, size_t> KeyToCol;
  for (uint32_t K : KeyNames) {
    KeyToCol[K] = Cols.size();
    Cols.push_back({Pool.text(K), T.schema()[ValIdx].Type, K});
  }

  // Group rows by the id columns, in first-appearance order.
  RowGrouping G = groupRowsBy(T, IdIdx);
  size_t NOut = G.numGroups();
  size_t NumValCols = Cols.size() - IdIdx.size();
  std::vector<ColumnData> ValCols(NumValCols, ColumnData(NOut));
  std::vector<std::vector<bool>> Filled(NumValCols,
                                        std::vector<bool>(NOut, false));
  const ColumnData &ValSrc = T.col(ValIdx);
  for (size_t R = 0; R != T.numRows(); ++R) {
    size_t RowI = G.GroupOf[R];
    size_t ColI = KeyToCol[KeyTokens[R]] - IdIdx.size();
    if (Filled[ColI][RowI])
      return std::nullopt; // duplicate key within a group
    ValCols[ColI][RowI] = ValSrc[R];
    Filled[ColI][RowI] = true;
  }
  // Every (group, key) combination must be present (no NA cells).
  for (const std::vector<bool> &F : Filled)
    for (bool B : F)
      if (!B)
        return std::nullopt;

  std::vector<ColumnPtr> Out;
  Out.reserve(Cols.size());
  for (size_t I : IdIdx)
    Out.push_back(gatherCol(T.col(I), G.FirstRow));
  for (ColumnData &C : ValCols)
    Out.push_back(ownCol(std::move(C)));
  return Table(Schema(std::move(Cols)), std::move(Out), NOut);
}

/// The id columns must lead Want's header and every column after them must
/// have the value column's type. Each input row fills exactly one cell of
/// the spread columns (a duplicate or a missing cell fails the kernel), so
/// the input's rows are Want's rows times the number of spread columns.
bool spreadMayYield(const Table &T, const std::string &Key,
                    const std::string &Val, const Table &Want) {
  std::optional<SpreadHeader> H = spreadHeader(T, Key, Val);
  if (!H)
    return false;
  size_t NumIds = H->IdIdx.size(), Width = Want.numCols();
  if (Width <= NumIds || Want.numRows() * (Width - NumIds) != T.numRows())
    return false;
  for (size_t I = 0; I != NumIds; ++I)
    if (!(Want.schema()[I] == T.schema()[H->IdIdx[I]]))
      return false;
  CellType ValType = T.schema()[H->ValIdx].Type;
  for (size_t I = NumIds; I != Width; ++I)
    if (Want.schema()[I].Type != ValType)
      return false;
  return true;
}

std::optional<Table> applySeparate(const Table &T, const std::string &Col,
                                   const Term &Into1, const Term &Into2) {
  std::optional<Header> H = separateHeader(T, Col, Into1, Into2);
  if (!H)
    return std::nullopt;
  const size_t Idx = H->Idx[0];
  ColumnData First, Second;
  First.reserve(T.numRows());
  Second.reserve(T.numRows());
  for (const Value &V : T.col(Idx)) {
    std::optional<std::pair<uint32_t, uint32_t>> Pieces =
        separatedIds(V.strId());
    if (!Pieces)
      return std::nullopt;
    First.push_back(Value::strOfId(Pieces->first));
    Second.push_back(Value::strOfId(Pieces->second));
  }
  std::vector<ColumnPtr> Out;
  Out.reserve(H->Out.size());
  for (size_t I = 0; I != T.numCols(); ++I) {
    if (I == Idx) {
      Out.push_back(ownCol(std::move(First)));
      Out.push_back(ownCol(std::move(Second)));
    } else {
      Out.push_back(T.colHandle(I)); // untouched columns alias
    }
  }
  return Table(std::move(H->Out), std::move(Out), T.numRows());
}

std::optional<Table> applyUnite(const Table &T, const Term &NewName,
                                const std::string &C1, const std::string &C2) {
  std::optional<Header> H = uniteHeader(T, NewName, C1, C2);
  if (!H)
    return std::nullopt;
  const size_t I1 = H->Idx[0], I2 = H->Idx[1];
  std::vector<ColumnPtr> Out;
  ColumnData United;
  United.reserve(T.numRows());
  const ColumnData &A = T.col(I1);
  const ColumnData &B = T.col(I2);
  for (size_t R = 0; R != T.numRows(); ++R)
    United.push_back(Value::strOfId(unitedId(A[R], B[R])));
  for (size_t I = 0; I != T.numCols(); ++I) {
    if (I == I1)
      Out.push_back(ownCol(std::move(United)));
    else if (I != I2)
      Out.push_back(T.colHandle(I));
  }
  return Table(std::move(H->Out), std::move(Out), T.numRows());
}

//===----------------------------------------------------------------------===//
// dplyr verbs
//===----------------------------------------------------------------------===//

std::optional<Table> applySelect(const Table &T,
                                 const std::vector<std::string> &Cols) {
  std::optional<Header> H = selectHeader(T, Cols);
  if (!H)
    return std::nullopt;
  // Pure column-pointer shuffle: no cells move.
  std::vector<ColumnPtr> Out;
  for (size_t I : H->Idx)
    Out.push_back(T.colHandle(I));
  Table Result(std::move(H->Out), std::move(Out), T.numRows());
  // Grouping columns that survive the projection stay grouping columns.
  std::vector<std::string> Groups;
  for (const std::string &G : T.groupCols())
    if (Result.schema().contains(G))
      Groups.push_back(G);
  Result.setGroupCols(std::move(Groups));
  return Result;
}

std::optional<Table> applyFilter(const Table &T, const TermPtr &Pred) {
  if (!Pred)
    return std::nullopt;
  auto Groups = T.groupedRowIndices();
  auto GroupMap = rowToGroup(T, Groups);
  std::vector<size_t> Keep;
  for (size_t R = 0; R != T.numRows(); ++R) {
    EvalContext Ctx{&T, R, GroupMap[R]};
    std::optional<Value> V = evalTerm(*Pred, Ctx);
    if (!V)
      return std::nullopt;
    if (isTruthy(*V))
      Keep.push_back(R);
  }
  // The paper's filter footnote (and its Table 2 spec row(y) < row(x)):
  // a predicate that keeps every row is a no-op the search must not
  // consider, exactly like the no-op distinct below (found by `morpheus
  // analyze`).
  if (Keep.size() == T.numRows())
    return std::nullopt;
  std::vector<ColumnPtr> Out;
  Out.reserve(T.numCols());
  for (size_t C = 0; C != T.numCols(); ++C)
    Out.push_back(gatherCol(T.col(C), Keep));
  Table Result(T.schema(), std::move(Out), Keep.size());
  Result.setGroupCols(T.groupCols());
  return Result;
}

std::optional<Table> applyGroupBy(const Table &T,
                                  const std::vector<std::string> &Cols) {
  if (!groupByAccepts(T, Cols))
    return std::nullopt;
  Table Result = T; // aliases every column
  Result.setGroupCols(Cols);
  return Result;
}

std::optional<Table> applySummarise(const Table &T, const Term &NewName,
                                    const TermPtr &Agg) {
  if (!Agg || Agg->K != Term::Kind::App || !Agg->Fn->isAggregate())
    return std::nullopt;
  std::optional<Header> H = summariseHeader(T, NewName);
  if (!H)
    return std::nullopt;

  std::vector<size_t> GroupFirst;
  ColumnData AggCells;
  for (const std::vector<size_t> &G : T.groupedRowIndices()) {
    if (G.empty())
      continue;
    EvalContext Ctx{&T, G.front(), &G};
    std::optional<Value> V = evalTerm(*Agg, Ctx);
    if (!V)
      return std::nullopt;
    GroupFirst.push_back(G.front());
    AggCells.push_back(std::move(*V));
  }
  std::vector<ColumnPtr> Out;
  Out.reserve(H->Out.size());
  for (size_t I : H->Idx)
    Out.push_back(gatherCol(T.col(I), GroupFirst));
  size_t NOut = AggCells.size();
  Out.push_back(ownCol(std::move(AggCells)));
  Table Result(std::move(H->Out), std::move(Out), NOut);
  // dplyr drops the last grouping level after summarise.
  std::vector<std::string> Remaining = T.groupCols();
  if (!Remaining.empty())
    Remaining.pop_back();
  Result.setGroupCols(std::move(Remaining));
  return Result;
}

std::optional<Table> applyMutate(const Table &T, const Term &NewName,
                                 const TermPtr &Expr) {
  std::optional<Schema> NewSchema;
  if (!Expr || !(NewSchema = mutateHeader(T, NewName)))
    return std::nullopt;
  auto Groups = T.groupedRowIndices();
  auto GroupMap = rowToGroup(T, Groups);
  ColumnData NewCells;
  NewCells.reserve(T.numRows());
  for (size_t R = 0; R != T.numRows(); ++R) {
    EvalContext Ctx{&T, R, GroupMap[R]};
    std::optional<Value> V = evalTerm(*Expr, Ctx);
    if (!V || !V->isNum())
      return std::nullopt;
    NewCells.push_back(std::move(*V));
  }
  // Existing columns alias; only the new column is fresh storage.
  std::vector<ColumnPtr> Out;
  Out.reserve(T.numCols() + 1);
  for (size_t C = 0; C != T.numCols(); ++C)
    Out.push_back(T.colHandle(C));
  Out.push_back(ownCol(std::move(NewCells)));
  Table Result(std::move(*NewSchema), std::move(Out), T.numRows());
  Result.setGroupCols(T.groupCols());
  return Result;
}

std::optional<Table> applyInnerJoin(const Table &A, const Table &B) {
  // Natural join on all shared column names; types must agree.
  std::vector<std::pair<size_t, size_t>> Shared;
  for (size_t I = 0; I != A.numCols(); ++I) {
    std::optional<size_t> J = B.schema().indexOf(A.schema()[I].Name);
    if (!J)
      continue;
    if (A.schema()[I].Type != B.schema()[*J].Type)
      return std::nullopt;
    Shared.emplace_back(I, *J);
  }
  if (Shared.empty() || Shared.size() == A.numCols())
    return std::nullopt;

  std::vector<size_t> BOnly;
  for (size_t J = 0; J != B.numCols(); ++J) {
    bool IsShared = false;
    for (auto [I, SJ] : Shared)
      if (SJ == J)
        IsShared = true;
    if (!IsShared)
      BOnly.push_back(J);
  }

  std::vector<Column> Cols(A.schema().columns());
  for (size_t J : BOnly)
    Cols.push_back(B.schema()[J]);

  // Matching row pairs first (interned equality is an integer compare),
  // then one gather per output column.
  std::vector<size_t> AIdx, BIdx;
  for (size_t RA = 0; RA != A.numRows(); ++RA) {
    for (size_t RB = 0; RB != B.numRows(); ++RB) {
      bool Match = true;
      for (auto [I, J] : Shared)
        if (!(A.at(RA, I) == B.at(RB, J))) {
          Match = false;
          break;
        }
      if (Match) {
        AIdx.push_back(RA);
        BIdx.push_back(RB);
      }
    }
  }
  std::vector<ColumnPtr> Out;
  Out.reserve(Cols.size());
  for (size_t I = 0; I != A.numCols(); ++I)
    Out.push_back(gatherCol(A.col(I), AIdx));
  for (size_t J : BOnly)
    Out.push_back(gatherCol(B.col(J), BIdx));
  return Table(Schema(std::move(Cols)), std::move(Out), AIdx.size());
}

std::optional<Table> applyArrange(const Table &T,
                                  const std::vector<std::string> &Cols) {
  if (!distinctColumnIds(T, Cols))
    return std::nullopt;
  std::vector<size_t> Idx;
  for (const std::string &C : Cols)
    Idx.push_back(*T.schema().indexOf(C));
  std::vector<size_t> Perm(T.numRows());
  for (size_t I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  std::stable_sort(Perm.begin(), Perm.end(), [&](size_t A, size_t B) {
    for (size_t I : Idx) {
      const Value &VA = T.at(A, I);
      const Value &VB = T.at(B, I);
      if (VA < VB)
        return true;
      if (VB < VA)
        return false;
    }
    return false;
  });
  std::vector<ColumnPtr> Out;
  Out.reserve(T.numCols());
  for (size_t C = 0; C != T.numCols(); ++C)
    Out.push_back(gatherCol(T.col(C), Perm));
  Table Result(T.schema(), std::move(Out), T.numRows());
  Result.setGroupCols(T.groupCols());
  return Result;
}

std::optional<Table> applyDistinct(const Table &T) {
  // Row keys over canonical tokens: the same printed-form identity the
  // row-major engine keyed on (where num 3 and str "3" coincide).
  std::vector<size_t> AllCols(T.numCols());
  for (size_t C = 0; C != T.numCols(); ++C)
    AllCols[C] = C;
  RowGrouping G = groupRowsBy(T, AllCols);
  if (G.numGroups() == T.numRows())
    return std::nullopt; // a no-op distinct is never needed
  std::vector<ColumnPtr> Out;
  Out.reserve(T.numCols());
  for (size_t C = 0; C != T.numCols(); ++C)
    Out.push_back(gatherCol(T.col(C), G.FirstRow));
  return Table(T.schema(), std::move(Out), G.numGroups());
}

} // namespace

StandardComponents::StandardComponents() {
  using Tables = std::vector<Table>;
  using Args = std::vector<TermPtr>;
  auto Add = [&](std::string Name, unsigned NumTables,
                 std::vector<ParamKind> Params, LambdaTransformer::ApplyFn Fn,
                 LambdaTransformer::GateFn Gate = nullptr) {
    Storage.push_back(std::make_unique<LambdaTransformer>(
        std::move(Name), NumTables, std::move(Params), std::move(Fn),
        std::move(Gate)));
    All.push_back(Storage.back().get());
  };
  // The gates test what costs no header first: a verb that keeps T's rows
  // must be handed Want's row count, whatever its terms say.
  auto SameRows = [](const Table &T, const Table &Want) {
    return T.numRows() == Want.numRows();
  };
  auto SameHeader = [](const Table &T, const Table &Want) {
    return T.numRows() == Want.numRows() && T.schema() == Want.schema();
  };

  Add(
      "gather", 1, {ParamKind::NewName, ParamKind::NewName, ParamKind::Cols},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const Term *Key = nameOf(A[0]), *Val = nameOf(A[1]);
        const std::vector<std::string> *Cols = colsOf(A[2]);
        if (!Key || !Val || !Cols)
          return std::nullopt;
        return applyGather(T[0], *Key, *Val, *Cols);
      },
      [](const Tables &T, const Args &A, const Table &Want) {
        const Term *Key = nameOf(A[0]), *Val = nameOf(A[1]);
        const std::vector<std::string> *Cols = colsOf(A[2]);
        return Key && Val && Cols &&
               gatherMayYield(T[0], *Key, *Val, *Cols, Want);
      });

  Add(
      "spread", 1, {ParamKind::ColName, ParamKind::ColName},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const Term *Key = nameOf(A[0]), *Val = nameOf(A[1]);
        if (!Key || !Val)
          return std::nullopt;
        return applySpread(T[0], Key->Name, Val->Name);
      },
      [](const Tables &T, const Args &A, const Table &Want) {
        const Term *Key = nameOf(A[0]), *Val = nameOf(A[1]);
        return Key && Val && spreadMayYield(T[0], Key->Name, Val->Name, Want);
      });

  Add(
      "separate", 1,
      {ParamKind::ColName, ParamKind::NewName, ParamKind::NewName},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const Term *Col = nameOf(A[0]), *I1 = nameOf(A[1]), *I2 = nameOf(A[2]);
        if (!Col || !I1 || !I2)
          return std::nullopt;
        return applySeparate(T[0], Col->Name, *I1, *I2);
      },
      [SameRows](const Tables &T, const Args &A, const Table &Want) {
        const Term *Col = nameOf(A[0]), *I1 = nameOf(A[1]), *I2 = nameOf(A[2]);
        if (!Col || !I1 || !I2 || !SameRows(T[0], Want) ||
            T[0].numCols() + 1 != Want.numCols())
          return false;
        std::optional<Header> H = separateHeader(T[0], Col->Name, *I1, *I2);
        return H && H->Out == Want.schema();
      });

  Add(
      "unite", 1, {ParamKind::NewName, ParamKind::ColName, ParamKind::ColName},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const Term *NN = nameOf(A[0]), *C1 = nameOf(A[1]), *C2 = nameOf(A[2]);
        if (!NN || !C1 || !C2)
          return std::nullopt;
        return applyUnite(T[0], *NN, C1->Name, C2->Name);
      },
      [SameRows](const Tables &T, const Args &A, const Table &Want) {
        const Term *NN = nameOf(A[0]), *C1 = nameOf(A[1]), *C2 = nameOf(A[2]);
        if (!NN || !C1 || !C2 || !SameRows(T[0], Want) ||
            Want.numCols() + 1 != T[0].numCols())
          return false;
        std::optional<Header> H = uniteHeader(T[0], *NN, C1->Name, C2->Name);
        return H && H->Out == Want.schema();
      });

  Add(
      "select", 1, {ParamKind::ColsOrdered},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const std::vector<std::string> *Cols = colsOf(A[0]);
        if (!Cols)
          return std::nullopt;
        return applySelect(T[0], *Cols);
      },
      [SameRows](const Tables &T, const Args &A, const Table &Want) {
        const std::vector<std::string> *Cols = colsOf(A[0]);
        if (!Cols || !SameRows(T[0], Want) || Cols->size() != Want.numCols())
          return false;
        std::optional<Header> H = selectHeader(T[0], *Cols);
        return H && H->Out == Want.schema();
      });

  // A filter keeps T's header and drops at least one row.
  Add(
      "filter", 1, {ParamKind::Pred},
      [](const Tables &T, const Args &A) { return applyFilter(T[0], A[0]); },
      [](const Tables &T, const Args &A, const Table &Want) {
        return A[0] && Want.numRows() < T[0].numRows() &&
               T[0].schema() == Want.schema();
      });

  // summarise yields one row per non-empty group: none of an empty table,
  // at most one of an ungrouped table, never more than T's rows.
  Add(
      "summarise", 1, {ParamKind::NewName, ParamKind::Agg},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const Term *NN = nameOf(A[0]);
        if (!NN)
          return std::nullopt;
        return applySummarise(T[0], *NN, A[1]);
      },
      [](const Tables &T, const Args &A, const Table &Want) {
        const Term *NN = nameOf(A[0]);
        size_t Rows = T[0].numRows(), WantRows = Want.numRows();
        if (!NN || !A[1] || WantRows > Rows || (Rows != 0 && WantRows == 0) ||
            (!T[0].isGrouped() && WantRows > 1) ||
            T[0].groupCols().size() + 1 != Want.numCols())
          return false;
        std::optional<Header> H = summariseHeader(T[0], *NN);
        return H && H->Out == Want.schema();
      });

  Add(
      "group_by", 1, {ParamKind::Cols},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const std::vector<std::string> *Cols = colsOf(A[0]);
        if (!Cols)
          return std::nullopt;
        return applyGroupBy(T[0], *Cols);
      },
      [SameHeader](const Tables &T, const Args &A, const Table &Want) {
        const std::vector<std::string> *Cols = colsOf(A[0]);
        return Cols && SameHeader(T[0], Want) && groupByAccepts(T[0], *Cols);
      });

  Add(
      "mutate", 1, {ParamKind::NewName, ParamKind::NumExpr},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const Term *NN = nameOf(A[0]);
        if (!NN)
          return std::nullopt;
        return applyMutate(T[0], *NN, A[1]);
      },
      [SameRows](const Tables &T, const Args &A, const Table &Want) {
        const Term *NN = nameOf(A[0]);
        if (!NN || !A[1] || !SameRows(T[0], Want) ||
            T[0].numCols() + 1 != Want.numCols())
          return false;
        std::optional<Schema> S = mutateHeader(T[0], *NN);
        return S && *S == Want.schema();
      });

  Add("inner_join", 2, {}, [](const Tables &T, const Args &) {
    return applyInnerJoin(T[0], T[1]);
  });

  Add(
      "arrange", 1, {ParamKind::ColsOrdered},
      [](const Tables &T, const Args &A) -> std::optional<Table> {
        const std::vector<std::string> *Cols = colsOf(A[0]);
        if (!Cols)
          return std::nullopt;
        return applyArrange(T[0], *Cols);
      },
      [SameHeader](const Tables &T, const Args &A, const Table &Want) {
        const std::vector<std::string> *Cols = colsOf(A[0]);
        return Cols && SameHeader(T[0], Want) &&
               distinctColumnIds(T[0], *Cols);
      });

  Add("distinct", 1, {},
      [](const Tables &T, const Args &) { return applyDistinct(T[0]); });

  std::vector<TableTransformer *> Mutable;
  Mutable.reserve(Storage.size());
  for (const std::unique_ptr<TableTransformer> &T : Storage)
    Mutable.push_back(T.get());
  attachStandardSpecs(Mutable);
}

const StandardComponents &StandardComponents::get() {
  static StandardComponents Instance;
  return Instance;
}

const TableTransformer *
StandardComponents::find(std::string_view Name) const {
  for (const TableTransformer *T : All)
    if (T->name() == Name)
      return T;
  return nullptr;
}

ComponentLibrary StandardComponents::tidyDplyr() const {
  ComponentLibrary Lib;
  for (const char *Name :
       {"gather", "spread", "separate", "unite", "select", "filter",
        "summarise", "group_by", "mutate", "inner_join", "arrange"})
    Lib.TableTransformers.push_back(find(Name));
  Lib.ValueTransformers = StandardValueOps::get().all();
  return Lib;
}

ComponentLibrary StandardComponents::sqlRelevant() const {
  ComponentLibrary Lib;
  for (const char *Name : {"select", "filter", "group_by", "summarise",
                           "mutate", "inner_join", "arrange", "distinct"})
    Lib.TableTransformers.push_back(find(Name));
  Lib.ValueTransformers = StandardValueOps::get().all();
  return Lib;
}
