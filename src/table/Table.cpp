//===- table/Table.cpp - Data frame substrate ------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "table/Table.h"

#include "table/TableUtils.h"

#include <algorithm>
#include <sstream>

using namespace morpheus;

std::optional<size_t> Schema::indexOf(std::string_view Name) const {
  for (size_t I = 0, E = Cols.size(); I != E; ++I)
    if (Cols[I].Name == Name)
      return I;
  return std::nullopt;
}

std::vector<std::string> Schema::names() const {
  std::vector<std::string> Names;
  Names.reserve(Cols.size());
  for (const Column &C : Cols)
    Names.push_back(C.Name);
  return Names;
}

//===----------------------------------------------------------------------===//
// Construction and value semantics
//===----------------------------------------------------------------------===//

Table::Table(Schema S, const std::vector<Row> &Rows)
    : TableSchema(std::move(S)), NRows(Rows.size()) {
#ifndef NDEBUG
  for (const Row &Rw : Rows)
    assert(Rw.size() == TableSchema.size() && "row width != schema width");
#endif
  Cols.reserve(TableSchema.size());
  for (size_t C = 0; C != TableSchema.size(); ++C) {
    auto Col = std::make_shared<ColumnData>();
    Col->reserve(NRows);
    for (const Row &Rw : Rows)
      Col->push_back(Rw[C]);
    Cols.push_back(std::move(Col));
  }
}

Table::Table(Schema S, std::vector<ColumnPtr> Columns, size_t NumRows)
    : TableSchema(std::move(S)), Cols(std::move(Columns)), NRows(NumRows) {
#ifndef NDEBUG
  assert(Cols.size() == TableSchema.size() && "column count != schema width");
  for (const ColumnPtr &C : Cols)
    assert(C && C->size() == NRows && "column height != row count");
#endif
}

void Table::copyCachesFrom(const Table &Other) {
  // Read the flag FIRST (acquire pairs with fingerprint()'s release): only
  // a flag observed as set guarantees the value store is visible. Reading
  // the value first could capture a stale fingerprint alongside a set flag
  // when the source is being fingerprinted concurrently.
  if (Other.FpState.load(std::memory_order_acquire)) {
    CachedFp.store(Other.CachedFp.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    FpState.store(1, std::memory_order_relaxed);
  } else {
    FpState.store(0, std::memory_order_relaxed);
  }
  std::atomic_store_explicit(
      &CachedPerm,
      std::atomic_load_explicit(&Other.CachedPerm, std::memory_order_acquire),
      std::memory_order_release);
}

void Table::stealCachesFrom(Table &Other) {
  // A table being moved from is exclusively owned by the mover (a reader
  // racing a move would race the column handles too), so plain loads and
  // a shared_ptr move suffice; the atomic shared_ptr functions would cost
  // two lock-pool mutex round trips per move.
  bool Set = Other.FpState.load(std::memory_order_relaxed) != 0;
  CachedFp.store(Set ? Other.CachedFp.load(std::memory_order_relaxed) : 0,
                 std::memory_order_relaxed);
  FpState.store(Set ? 1 : 0, std::memory_order_relaxed);
  Other.FpState.store(0, std::memory_order_relaxed);
  CachedPerm = std::move(Other.CachedPerm);
}

Table::Table(const Table &Other)
    : TableSchema(Other.TableSchema), Cols(Other.Cols), NRows(Other.NRows),
      GroupCols(Other.GroupCols) {
  copyCachesFrom(Other);
}

Table::Table(Table &&Other) noexcept
    : TableSchema(std::move(Other.TableSchema)), Cols(std::move(Other.Cols)),
      NRows(Other.NRows), GroupCols(std::move(Other.GroupCols)) {
  stealCachesFrom(Other);
}

Table &Table::operator=(const Table &Other) {
  if (this == &Other)
    return *this;
  TableSchema = Other.TableSchema;
  Cols = Other.Cols;
  NRows = Other.NRows;
  GroupCols = Other.GroupCols;
  copyCachesFrom(Other);
  return *this;
}

Table &Table::operator=(Table &&Other) noexcept {
  if (this == &Other)
    return *this;
  TableSchema = std::move(Other.TableSchema);
  Cols = std::move(Other.Cols);
  NRows = Other.NRows;
  GroupCols = std::move(Other.GroupCols);
  stealCachesFrom(Other);
  return *this;
}

const ColumnData &Table::column(std::string_view Name) const {
  std::optional<size_t> Idx = TableSchema.indexOf(Name);
  assert(Idx && "no such column");
  return *Cols[*Idx];
}

Row Table::row(size_t R) const {
  assert(R < NRows && "row out of range");
  Row Out;
  Out.reserve(Cols.size());
  for (const ColumnPtr &C : Cols)
    Out.push_back((*C)[R]);
  return Out;
}

//===----------------------------------------------------------------------===//
// Grouping
//===----------------------------------------------------------------------===//

std::vector<std::vector<size_t>> Table::groupedRowIndices() const {
  if (GroupCols.empty()) {
    std::vector<size_t> All(NRows);
    for (size_t I = 0; I != NRows; ++I)
      All[I] = I;
    return {All};
  }
  std::vector<size_t> KeyIdx;
  for (const std::string &G : GroupCols) {
    std::optional<size_t> Idx = TableSchema.indexOf(G);
    assert(Idx && "grouping column missing from schema");
    KeyIdx.push_back(*Idx);
  }
  return groupRowsBy(*this, KeyIdx).memberLists();
}

size_t Table::numGroups() const { return groupedRowIndices().size(); }

//===----------------------------------------------------------------------===//
// Fingerprint, canonical form and equality
//===----------------------------------------------------------------------===//

namespace {

/// The fingerprint finalizer (the murmur3 64-bit mixer).
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

} // namespace

uint64_t Table::fingerprint() const {
  if (FpState.load(std::memory_order_acquire))
    return CachedFp.load(std::memory_order_relaxed);

  // Schema hash: order-dependent fold of names and types.
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const Column &C : TableSchema.columns()) {
    H = mix64(H ^ std::hash<std::string>()(C.Name));
    H = mix64(H ^ (C.Type == CellType::Str ? 0x53 : 0x4e));
  }
  // Row hashes folded commutatively (sum and xor-of-mixed), so row order
  // cannot change the fingerprint. Within a row the fold is
  // order-dependent; cell hashing is Value::hash, whose printed-form
  // numeric hashing keeps tolerant-equal cells fingerprint-equal for all
  // values that arise in practice.
  uint64_t Sum = 0, Xor = 0;
  for (size_t R = 0; R != NRows; ++R) {
    uint64_t RH = 0x9e3779b97f4a7c15ULL;
    for (const ColumnPtr &Col : Cols)
      RH = mix64(RH ^ uint64_t((*Col)[R].hash()));
    Sum += RH;
    Xor ^= mix64(RH);
  }
  uint64_t Fp = mix64(H ^ Sum) ^ mix64(Xor ^ (uint64_t(NRows) << 32));

  // Deterministic value: racing writers store the same result, so the
  // relaxed value store before the release flag store is benign.
  CachedFp.store(Fp, std::memory_order_relaxed);
  FpState.store(1, std::memory_order_release);
  return Fp;
}

bool Table::rowLess(size_t A, size_t B) const {
  for (size_t C = 0; C != Cols.size(); ++C) {
    const Value &VA = (*Cols[C])[A];
    const Value &VB = (*Cols[C])[B];
    if (VA < VB)
      return true;
    if (VB < VA)
      return false;
  }
  return false;
}

std::shared_ptr<const std::vector<uint32_t>> Table::sortedPermutation() const {
  std::shared_ptr<const std::vector<uint32_t>> Perm =
      std::atomic_load_explicit(&CachedPerm, std::memory_order_acquire);
  if (Perm)
    return Perm;
  auto Fresh = std::make_shared<std::vector<uint32_t>>(NRows);
  for (uint32_t I = 0; I != NRows; ++I)
    (*Fresh)[I] = I;
  std::stable_sort(Fresh->begin(), Fresh->end(),
                   [this](uint32_t A, uint32_t B) { return rowLess(A, B); });
  std::shared_ptr<const std::vector<uint32_t>> Result = std::move(Fresh);
  std::atomic_store_explicit(&CachedPerm, Result, std::memory_order_release);
  return Result;
}

bool Table::rowsEqualPermuted(const std::vector<uint32_t> &PA,
                              const Table &Other,
                              const std::vector<uint32_t> &PB) const {
  for (size_t C = 0; C != Cols.size(); ++C) {
    const ColumnData &CA = *Cols[C];
    const ColumnData &CB = *Other.Cols[C];
    for (size_t R = 0; R != NRows; ++R)
      if (!(CA[PA[R]] == CB[PB[R]]))
        return false;
  }
  return true;
}

Table Table::sortedByAllColumns() const {
  std::shared_ptr<const std::vector<uint32_t>> Perm = sortedPermutation();
  std::vector<ColumnPtr> NewCols;
  NewCols.reserve(Cols.size());
  for (const ColumnPtr &C : Cols) {
    auto NC = std::make_shared<ColumnData>();
    NC->reserve(NRows);
    for (uint32_t R : *Perm)
      NC->push_back((*C)[R]);
    NewCols.push_back(std::move(NC));
  }
  Table Out(TableSchema, std::move(NewCols), NRows);
  Out.GroupCols = GroupCols;
  return Out;
}

bool Table::equalsOrdered(const Table &Other) const {
  if (!(TableSchema == Other.TableSchema) || NRows != Other.NRows)
    return false;
  for (size_t C = 0; C != Cols.size(); ++C) {
    if (Cols[C] == Other.Cols[C])
      continue; // shared column storage: trivially equal
    const ColumnData &CA = *Cols[C];
    const ColumnData &CB = *Other.Cols[C];
    for (size_t R = 0; R != NRows; ++R)
      if (!(CA[R] == CB[R]))
        return false;
  }
  return true;
}

bool Table::equalsUnordered(const Table &Other) const {
  if (!(TableSchema == Other.TableSchema) || NRows != Other.NRows)
    return false;
  if (fingerprint() != Other.fingerprint())
    return false;
  return rowsEqualPermuted(*sortedPermutation(), Other,
                           *Other.sortedPermutation());
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string Table::toString() const {
  std::vector<size_t> Widths(numCols());
  for (size_t C = 0; C != numCols(); ++C)
    Widths[C] = TableSchema[C].Name.size();
  std::vector<std::vector<std::string>> Cells;
  Cells.reserve(NRows);
  for (size_t R = 0; R != NRows; ++R) {
    std::vector<std::string> Line;
    Line.reserve(numCols());
    for (size_t C = 0; C != numCols(); ++C) {
      Line.push_back(at(R, C).toString());
      Widths[C] = std::max(Widths[C], Line.back().size());
    }
    Cells.push_back(std::move(Line));
  }
  std::ostringstream OS;
  auto EmitRow = [&](auto Get) {
    for (size_t C = 0; C != numCols(); ++C) {
      std::string S = Get(C);
      OS << S << std::string(Widths[C] - S.size() + 2, ' ');
    }
    OS << '\n';
  };
  EmitRow([&](size_t C) { return TableSchema[C].Name; });
  for (const auto &Line : Cells)
    EmitRow([&](size_t C) { return Line[C]; });
  if (isGrouped()) {
    OS << "# groups:";
    for (const std::string &G : GroupCols)
      OS << ' ' << G;
    OS << '\n';
  }
  return OS.str();
}

Table morpheus::makeTable(std::vector<Column> Cols, std::vector<Row> Rows) {
  return Table(Schema(std::move(Cols)), Rows);
}
