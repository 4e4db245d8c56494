//===- tests/TableTest.cpp - Table substrate unit tests -----------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/ValueOps.h"
#include "suite/Task.h"
#include "table/Table.h"
#include "table/TableUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace morpheus;

namespace {

Table roster() {
  return makeTable({{"id", CellType::Num},
                    {"name", CellType::Str},
                    {"age", CellType::Num}},
                   {{num(1), str("Alice"), num(8)},
                    {num(2), str("Bob"), num(18)},
                    {num(3), str("Tom"), num(12)}});
}

TEST(Value, NumberPrinting) {
  EXPECT_EQ(num(3).toString(), "3");
  EXPECT_EQ(num(3.5).toString(), "3.5");
  EXPECT_EQ(num(2.0 / 3.0).toString(), "0.6666667");
  EXPECT_EQ(num(-12).toString(), "-12");
}

TEST(Value, TolerantNumericEquality) {
  EXPECT_EQ(num(0.1 + 0.2), num(0.3));
  EXPECT_NE(num(0.3001), num(0.3));
  EXPECT_NE(num(1), str("1"));
}

TEST(Value, Ordering) {
  EXPECT_LT(num(1), num(2));
  EXPECT_LT(num(999), str("a")); // numbers order before strings
  EXPECT_LT(str("a"), str("b"));
  EXPECT_FALSE(num(2) < num(2));
}

TEST(Schema, IndexOf) {
  Table T = roster();
  EXPECT_EQ(T.schema().indexOf("name"), 1u);
  EXPECT_FALSE(T.schema().indexOf("ghost").has_value());
  EXPECT_EQ(T.schema().names(),
            (std::vector<std::string>{"id", "name", "age"}));
}

TEST(Table, CellAccess) {
  Table T = roster();
  EXPECT_EQ(T.numRows(), 3u);
  EXPECT_EQ(T.numCols(), 3u);
  EXPECT_EQ(T.at(1, 1), str("Bob"));
  EXPECT_EQ(T.column("age"),
            (std::vector<Value>{num(8), num(18), num(12)}));
}

TEST(Table, UnorderedEqualityIgnoresRowOrder) {
  Table A = roster();
  Table B = makeTable({{"id", CellType::Num},
                       {"name", CellType::Str},
                       {"age", CellType::Num}},
                      {{num(3), str("Tom"), num(12)},
                       {num(1), str("Alice"), num(8)},
                       {num(2), str("Bob"), num(18)}});
  EXPECT_TRUE(A.equalsUnordered(B));
  EXPECT_FALSE(A.equalsOrdered(B));
}

TEST(Table, EqualityIsSchemaSensitive) {
  Table A = roster();
  std::vector<Row> Rows;
  for (size_t R = 0; R != A.numRows(); ++R)
    Rows.push_back(A.row(R));
  Table B = makeTable({{"id", CellType::Num},
                       {"fullname", CellType::Str},
                       {"age", CellType::Num}},
                      Rows);
  EXPECT_FALSE(A.equalsUnordered(B));
}

TEST(Table, GroupingMetadata) {
  Table T = makeTable({{"k", CellType::Str}, {"v", CellType::Num}},
                      {{str("a"), num(1)},
                       {str("b"), num(2)},
                       {str("a"), num(3)}});
  EXPECT_EQ(T.numGroups(), 1u);
  T.setGroupCols({"k"});
  EXPECT_EQ(T.numGroups(), 2u);
  auto Groups = T.groupedRowIndices();
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0], (std::vector<size_t>{0, 2})); // first-appearance
  EXPECT_EQ(Groups[1], (std::vector<size_t>{1}));
}

TEST(Table, GroupKeysDistinguishTypes) {
  // The string "1" and the number 1 must land in different groups.
  Table T = makeTable({{"k", CellType::Str}, {"v", CellType::Num}},
                      {{str("1"), num(1)}, {str("x"), num(2)}});
  Table U = makeTable({{"k", CellType::Num}, {"v", CellType::Num}},
                      {{num(1), num(1)}, {num(1), num(2)}});
  T.setGroupCols({"k"});
  U.setGroupCols({"k"});
  EXPECT_EQ(T.numGroups(), 2u);
  EXPECT_EQ(U.numGroups(), 1u);
}

TEST(TableUtils, HeaderAndValueTokenSets) {
  Table T = roster();
  StringInterner &Pool = StringInterner::global();
  TokenSet H = headerTokens(T);
  EXPECT_EQ(H, (TokenSet{Pool.intern("id"), Pool.intern("name"),
                         Pool.intern("age")}));
  TokenSet V = valueTokens(T);
  EXPECT_TRUE(V.count(Pool.intern("Alice")));
  EXPECT_TRUE(V.count(Pool.intern("18"))); // numeric cells join by print
  EXPECT_TRUE(V.count(Pool.intern("age"))); // headers are value members
  EXPECT_EQ(countNotIn(V, H), V.size() - 3);
}

TEST(Value, InternedStringIdentity) {
  // One text, one id: equality and hashing collapse to integer ops.
  EXPECT_EQ(str("shared").strId(), str("shared").strId());
  EXPECT_NE(str("shared").strId(), str("other").strId());
  EXPECT_EQ(str("shared").strVal(), "shared");
  // Canonical tokens unify a numeric cell with its printed form.
  EXPECT_EQ(num(3).canonicalToken(), str("3").canonicalToken());
  EXPECT_NE(num(3).canonicalToken(), num(4).canonicalToken());
}

TEST(Value, OrderingSurvivesLateInterning) {
  // The rank table rebuilds after new strings arrive mid-comparison.
  Value A = str("rank_aa"), C = str("rank_cc");
  EXPECT_LT(A, C);
  Value B = str("rank_bb"); // invalidates the rank snapshot
  EXPECT_LT(A, B);
  EXPECT_LT(B, C);
  EXPECT_FALSE(C < B);
}

TEST(Table, FingerprintIsOrderInsensitive) {
  Table A = roster();
  Table B = makeTable({{"id", CellType::Num},
                       {"name", CellType::Str},
                       {"age", CellType::Num}},
                      {{num(3), str("Tom"), num(12)},
                       {num(1), str("Alice"), num(8)},
                       {num(2), str("Bob"), num(18)}});
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  // A changed cell, a changed column name, or a changed type all shift it.
  Table C = makeTable({{"id", CellType::Num},
                       {"name", CellType::Str},
                       {"age", CellType::Num}},
                      {{num(1), str("Alice"), num(8)},
                       {num(2), str("Bob"), num(18)},
                       {num(3), str("Tom"), num(13)}});
  EXPECT_NE(A.fingerprint(), C.fingerprint());
  std::vector<Row> Rows;
  for (size_t R = 0; R != A.numRows(); ++R)
    Rows.push_back(A.row(R));
  Table D = makeTable({{"id", CellType::Num},
                       {"label", CellType::Str},
                       {"age", CellType::Num}},
                      Rows);
  EXPECT_NE(A.fingerprint(), D.fingerprint());
}

TEST(Table, FingerprintIgnoresSwappedCellsAcrossRows) {
  // Commutative row combine must still see *rows*, not loose cells: the
  // same multiset of cells arranged into different rows must differ.
  Table A = makeTable({{"x", CellType::Num}, {"y", CellType::Num}},
                      {{num(1), num(2)}, {num(3), num(4)}});
  Table B = makeTable({{"x", CellType::Num}, {"y", CellType::Num}},
                      {{num(1), num(4)}, {num(3), num(2)}});
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  EXPECT_FALSE(A.equalsUnordered(B));
}

TEST(Table, ColumnViewIsZeroCopy) {
  Table T = roster();
  // The named view and the indexed view alias the same storage.
  EXPECT_EQ(&T.column("age"), &T.col(2));
  EXPECT_EQ(T.colHandle(2).get(), &T.col(2));
  // A copied table shares every column (copy-on-write).
  Table U = T;
  EXPECT_EQ(U.colHandle(0).get(), T.colHandle(0).get());
}

TEST(TableUtils, DistinctColumnValues) {
  Table T = makeTable({{"k", CellType::Str}},
                      {{str("b")}, {str("a")}, {str("b")}});
  auto D = distinctColumnValues(T, "k");
  ASSERT_EQ(D.size(), 2u);
  EXPECT_EQ(D[0], str("b")); // first-appearance order
  EXPECT_EQ(D[1], str("a"));
}

TEST(Value, NegativeZeroIsZero) {
  // -0.0 compares and hashes equal to 0, so it must print and tokenize
  // like 0 too: R prints 0, and grouping/dedupe key on the token.
  Value Neg = num(-0.0), Pos = num(0);
  EXPECT_EQ(Neg, Pos);
  EXPECT_EQ(Neg.hash(), Pos.hash());
  EXPECT_EQ(Neg.toString(), "0");
  EXPECT_EQ(Neg.canonicalToken(), Pos.canonicalToken());
  Table T = makeTable({{"k", CellType::Num}}, {{Pos}, {Neg}, {Pos}});
  RowGrouping G = groupRowsBy(T, {0});
  EXPECT_EQ(G.FirstRow.size(), 1u);
  EXPECT_EQ(G.GroupOf, (std::vector<uint32_t>{0, 0, 0}));
}

//===----------------------------------------------------------------------===//
// filter over edge cells, checked against the standard comparison operators
// applied row by row, and the fingerprint against its row-wise definition.
//===----------------------------------------------------------------------===//

/// The table-fingerprint finalizer, restated from table/Table.cpp.
uint64_t mixFp(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// Checks `filter(x0, x <op> C)` over a table whose column "x" holds
/// \p Cells and column "i" the row index: it keeps exactly the rows where
/// the standard comparison operator \p Op holds, and rejects the
/// candidate when that is every row (a keep-all predicate is a no-op).
void expectFilterMatchesStandardOp(const std::vector<Value> &Cells,
                                   const char *Op, const Value &C) {
  const ValueTransformer *Cmp = StandardValueOps::get().find(Op);
  std::vector<double> Want;
  std::vector<std::vector<Value>> Rows;
  for (size_t I = 0; I != Cells.size(); ++I) {
    std::optional<Value> V = Cmp->applyScalar({Cells[I], C});
    if (V && isTruthy(*V))
      Want.push_back(double(I));
    Rows.push_back({Cells[I], num(double(I))});
  }
  Table In = makeTable({{"x", Cells[0].type()}, {"i", CellType::Num}}, Rows);
  std::optional<Table> Out = pb::filter(pb::in(0), "x", Op, C)->evaluate({In});
  if (Want.size() == Cells.size()) {
    EXPECT_FALSE(Out) << Op << " " << C.toString();
    return;
  }
  ASSERT_TRUE(Out) << Op << " " << C.toString();
  std::vector<double> Kept;
  for (const Value &V : Out->column("i"))
    Kept.push_back(V.num());
  EXPECT_EQ(Kept, Want) << Op << " " << C.toString();
}

TEST(Filter, EdgeCellsMatchStandardOps) {
  // Edge inputs around compare()'s tolerant equality (|a-b| <= 1e-9 *
  // max(|a|,|b|,1)): exact hit, within-tolerance, just outside, NaN and
  // infinities, zeros, and plain misses on both sides — against a large
  // constant, zero, negative zero and infinity.
  std::vector<Value> Nums;
  for (double X : {100.0, 100.0 + 5e-8, 100.0 - 5e-8, 100.0 + 1e-6,
                   100.0 - 1e-6, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), 0.0, -0.0, 1e-10,
                   99.0, 101.0, -100.0})
    Nums.push_back(num(X));
  for (double C : {100.0, 0.0, -0.0, std::numeric_limits<double>::infinity()})
    for (const char *Op : {"==", "!=", "<", "<=", ">", ">="})
      expectFilterMatchesStandardOp(Nums, Op, num(C));

  std::vector<Value> Strs;
  for (int I = 0; I != 41; ++I)
    Strs.push_back(str("s" + std::to_string(I % 5)));
  for (const char *Op : {"==", "!="})
    for (const Value &C : {str("s3"), str("absent")})
      expectFilterMatchesStandardOp(Strs, Op, C);
}

TEST(Table, FingerprintMatchesRowWiseFold) {
  Table Mixed = makeTable(
      {{"k", CellType::Str}, {"a", CellType::Num}, {"b", CellType::Num}},
      {{str("x"), num(1), num(2.5)},
       {str("y"), num(-7), num(1.0 / 3.0)},
       {str("x"), num(1e15), num(std::numeric_limits<double>::infinity())},
       {str(""), num(-0.0), num(std::numeric_limits<double>::quiet_NaN())},
       {str("z"), num(123456), num(-1e15 + 1)}});
  // Table::fingerprint's definition, one row at a time: an order-dependent
  // schema hash, an order-dependent fold of each row's cell hashes, and a
  // row-order-insensitive sum/xor combine of the row hashes.
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const Column &C : Mixed.schema().columns()) {
    H = mixFp(H ^ std::hash<std::string>()(C.Name));
    H = mixFp(H ^ (C.Type == CellType::Str ? 0x53 : 0x4e));
  }
  uint64_t Sum = 0, Xor = 0;
  for (size_t R = 0; R != Mixed.numRows(); ++R) {
    uint64_t RH = 0x9e3779b97f4a7c15ULL;
    for (size_t C = 0; C != Mixed.numCols(); ++C)
      RH = mixFp(RH ^ uint64_t(Mixed.col(C)[R].hash()));
    Sum += RH;
    Xor ^= mixFp(RH);
  }
  uint64_t Ref =
      mixFp(H ^ Sum) ^ mixFp(Xor ^ (uint64_t(Mixed.numRows()) << 32));
  EXPECT_EQ(Mixed.fingerprint(), Ref);
}

} // namespace
