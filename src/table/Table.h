//===- table/Table.h - Data frame substrate ---------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines Schema and Table, the data-frame substrate the synthesizer and
/// the component library operate on. A Table is the tuple (r, c, τ, ς) of
/// Definition 1 plus dplyr-style grouping metadata: group_by returns a
/// "grouped data frame" whose grouping columns change the behaviour of
/// summarise/mutate and the abstract `group` attribute of Spec 2.
///
/// Storage is columnar: one contiguous std::vector<Value> per column,
/// shared copy-on-write through shared_ptr. Verbs that keep a column's
/// cells intact (select, mutate, group_by) alias the column instead of
/// copying it, so the synthesis inner loop shuffles pointers, not rows.
/// Each table lazily caches a 64-bit order-insensitive fingerprint (schema
/// hash + commutative row-hash combine) and its canonical (all-columns
/// sorted) row permutation; equalsUnordered rejects on the fingerprint in
/// O(1) and only sorts on a fingerprint match. Both caches are safe to
/// populate from concurrent readers (portfolio threads share the example
/// tables): the computed values are deterministic and stored atomically.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_TABLE_TABLE_H
#define MORPHEUS_TABLE_TABLE_H

#include "table/Value.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace morpheus {

/// One column of a schema: a name, its interner id and a cell type.
///
/// A name is interned once, where it enters the system (a parsed or built
/// table, a name term); kernels that derive a column pass the id along, so
/// abstraction and header comparisons never re-intern a name.
struct Column {
  std::string Name;
  CellType Type;
  uint32_t NameId;

  /// Declares a column, interning its name.
  Column(std::string Name, CellType Type)
      : Name(std::move(Name)), Type(Type),
        NameId(StringInterner::global().intern(this->Name)) {}
  /// Declares a column whose name the interner already holds as \p NameId.
  Column(std::string Name, CellType Type, uint32_t NameId)
      : Name(std::move(Name)), Type(Type), NameId(NameId) {}

  /// Interning is injective, so equal ids mean equal names.
  bool operator==(const Column &Other) const {
    return NameId == Other.NameId && Type == Other.Type;
  }
};

/// An ordered list of named, typed columns (the record type of Def. 1).
class Schema {
public:
  Schema() = default;
  explicit Schema(std::vector<Column> Cols) : Cols(std::move(Cols)) {}

  size_t size() const { return Cols.size(); }
  const Column &operator[](size_t I) const { return Cols[I]; }
  const std::vector<Column> &columns() const { return Cols; }

  /// Returns the index of the column named \p Name, or nullopt.
  std::optional<size_t> indexOf(std::string_view Name) const;
  /// As above for the name the interner holds as \p NameId: interning is
  /// injective, so this is the same column without a string compare.
  std::optional<size_t> indexOf(uint32_t NameId) const {
    for (size_t I = 0, E = Cols.size(); I != E; ++I)
      if (Cols[I].NameId == NameId)
        return I;
    return std::nullopt;
  }
  bool contains(std::string_view Name) const {
    return indexOf(Name).has_value();
  }

  /// Appends a column; the caller must keep columns in sync.
  void append(Column C) { Cols.push_back(std::move(C)); }

  /// All column names, in schema order.
  std::vector<std::string> names() const;

  bool operator==(const Schema &Other) const { return Cols == Other.Cols; }

private:
  std::vector<Column> Cols;
};

/// A materialized row of cells (builder/test convenience; the engine itself
/// stores columns).
using Row = std::vector<Value>;

/// One column's cells; shared copy-on-write between tables.
using ColumnData = std::vector<Value>;
using ColumnPtr = std::shared_ptr<const ColumnData>;

/// A data frame: schema + column-major cells + optional grouping columns.
class Table {
public:
  Table() = default;
  /// Row-major builder constructor (tests, suites, IO); transposes into
  /// columnar storage.
  Table(Schema S, const std::vector<Row> &Rows);
  /// Columnar constructor: every column must have \p NumRows cells.
  Table(Schema S, std::vector<ColumnPtr> Columns, size_t NumRows);

  Table(const Table &Other);
  Table(Table &&Other) noexcept;
  Table &operator=(const Table &Other);
  Table &operator=(Table &&Other) noexcept;

  size_t numRows() const { return NRows; }
  size_t numCols() const { return TableSchema.size(); }

  const Schema &schema() const { return TableSchema; }

  const Value &at(size_t R, size_t C) const {
    assert(R < NRows && C < Cols.size() && "cell out of range");
    return (*Cols[C])[R];
  }

  /// The cells of column \p C; zero-copy.
  const ColumnData &col(size_t C) const {
    assert(C < Cols.size() && "column out of range");
    return *Cols[C];
  }

  /// The shared handle of column \p C, for aliasing it into a new table.
  const ColumnPtr &colHandle(size_t C) const {
    assert(C < Cols.size() && "column out of range");
    return Cols[C];
  }

  /// The cells of the column named \p Name; asserts it exists. Zero-copy:
  /// returns a reference into the table's shared column storage.
  const ColumnData &column(std::string_view Name) const;

  /// Materializes row \p R (builder/test convenience).
  Row row(size_t R) const;

  /// Grouping metadata (dplyr grouped_df). Empty means ungrouped.
  const std::vector<std::string> &groupCols() const { return GroupCols; }
  void setGroupCols(std::vector<std::string> Cols) {
    GroupCols = std::move(Cols);
  }
  bool isGrouped() const { return !GroupCols.empty(); }

  /// Number of groups: distinct combinations of the grouping columns, or 1
  /// when ungrouped (the Spec 2 `group` attribute, Appendix A).
  size_t numGroups() const;

  /// Partition of row indices by grouping columns; a single group with all
  /// rows when ungrouped. Groups are ordered by first appearance.
  std::vector<std::vector<size_t>> groupedRowIndices() const;

  /// Order-insensitive 64-bit fingerprint: schema hash combined with a
  /// commutative fold of per-row hashes. Equal tables (up to row order)
  /// always fingerprint equal; unequal tables collide with probability
  /// ~2^-64. Computed once and cached.
  uint64_t fingerprint() const;

  /// The permutation that sorts the rows lexicographically by all columns
  /// (the canonical form). Computed once and cached; shared by
  /// equalsUnordered and sortedByAllColumns.
  std::shared_ptr<const std::vector<uint32_t>> sortedPermutation() const;

  /// Schema-and-content equality with rows treated as a multiset. Column
  /// names and order must match; row order is ignored (dplyr does not
  /// guarantee row order for most verbs). Rejects on the fingerprint in
  /// O(1); sorts (cached) only when the fingerprints match.
  bool equalsUnordered(const Table &Other) const;

  /// Exact equality including row order (used when `arrange` makes row
  /// order observable).
  bool equalsOrdered(const Table &Other) const;

  /// Sorts rows lexicographically by all columns (canonical form).
  Table sortedByAllColumns() const;

  /// Renders an aligned ASCII view (for examples, tests and debugging).
  std::string toString() const;

private:
  bool rowLess(size_t A, size_t B) const;
  bool rowsEqualPermuted(const std::vector<uint32_t> &PA, const Table &Other,
                         const std::vector<uint32_t> &PB) const;
  void copyCachesFrom(const Table &Other);
  void stealCachesFrom(Table &Other);

  Schema TableSchema;
  std::vector<ColumnPtr> Cols;
  size_t NRows = 0;
  std::vector<std::string> GroupCols;

  /// Lazy caches. Deterministic values, so racing initializations store the
  /// same result; FpState 0 = unset, 1 = set (the fingerprint itself may
  /// legitimately be any value, including 0). Copies read them atomically
  /// (example tables are read concurrently); moves steal them.
  mutable std::atomic<uint64_t> CachedFp{0};
  mutable std::atomic<uint8_t> FpState{0};
  mutable std::shared_ptr<const std::vector<uint32_t>> CachedPerm;
};

/// Convenience builder used throughout tests, examples and the benchmark
/// suite:
///   makeTable({{"id", CellType::Num}, {"name", CellType::Str}},
///             {{Value::number(1), Value::str("Alice")}, ...})
Table makeTable(std::vector<Column> Cols, std::vector<Row> Rows);

/// Shorthand cell constructors (heavily used by the suite and tests).
inline Value num(double N) { return Value::number(N); }
inline Value str(std::string_view S) { return Value::str(S); }

} // namespace morpheus

#endif // MORPHEUS_TABLE_TABLE_H
