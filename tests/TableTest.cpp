//===- tests/TableTest.cpp - Table substrate unit tests -----------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/ValueOps.h"
#include "support/Arena.h"
#include "support/Simd.h"
#include "table/Table.h"
#include "table/TableUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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

//===----------------------------------------------------------------------===//
// Raw cell layout: the contract the fold*CellsU64 kernels (support/Simd.h)
// stream over. Pinned empirically so a Value layout change cannot silently
// desynchronize the kernels from Value::hash.
//===----------------------------------------------------------------------===//

TEST(Value, RawCellLayout) {
  ASSERT_EQ(sizeof(Value), 16u);
  char Raw[16];
  Value N = num(-12.75);
  std::memcpy(Raw, &N, 16);
  double Payload;
  std::memcpy(&Payload, Raw, 8); // payload double at byte 0
  EXPECT_EQ(Payload, -12.75);
  uint32_t Type;
  std::memcpy(&Type, Raw + 12, 4); // 32-bit type code at byte 12
  EXPECT_EQ(Type, uint32_t(CellType::Num));

  Value S = str("abc");
  std::memcpy(Raw, &S, 16);
  uint32_t Id;
  std::memcpy(&Id, Raw + 8, 4); // interner id at byte 8
  EXPECT_EQ(Id, S.strId());
  std::memcpy(&Type, Raw + 12, 4);
  EXPECT_EQ(Type, uint32_t(CellType::Str));
}

//===----------------------------------------------------------------------===//
// Arena (support/Arena.h): bump allocation, scope rewind, chunk retention
//===----------------------------------------------------------------------===//

TEST(Arena, AlignsAndGrows) {
  Arena A(64); // tiny first chunk so the big request forces growth
  char *C = A.alloc<char>(3);
  (void)C;
  double *D = A.alloc<double>(4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(D) % alignof(double), 0u);
  uint64_t *Big = A.alloc<uint64_t>(1024); // larger than any chunk so far
  Big[0] = 1;
  Big[1023] = 42;
  EXPECT_EQ(Big[1023], 42u);
  EXPECT_GE(A.capacityBytes(), 1024 * sizeof(uint64_t));
}

TEST(Arena, ScopeRewindReusesMemory) {
  Arena A;
  void *First = nullptr;
  {
    ArenaScope S(A);
    First = A.alloc<uint64_t>(16);
  }
  {
    ArenaScope S(A);
    // The scope rewound the cursor, so the same block comes back.
    EXPECT_EQ(A.alloc<uint64_t>(16), First);
  }
}

TEST(Arena, ScopesNestLikeAStack) {
  Arena A;
  ArenaScope Outer(A);
  uint64_t *X = A.alloc<uint64_t>(4);
  X[0] = 7;
  void *Inner = nullptr;
  {
    ArenaScope S(A);
    Inner = A.alloc<uint64_t>(4);
    EXPECT_NE(Inner, static_cast<void *>(X));
  }
  // The inner rewind released only the inner allocation.
  EXPECT_EQ(X[0], 7u);
  EXPECT_EQ(A.alloc<uint64_t>(4), Inner);
}

TEST(Arena, RetainsChunksAcrossReset) {
  Arena A(128);
  A.alloc<char>(100);
  A.alloc<char>(200); // spills into a second chunk
  size_t Cap = A.capacityBytes();
  A.reset();
  A.alloc<char>(100);
  A.alloc<char>(200);
  // Steady state: rewinding keeps the chunks, so repeating the same
  // allocation pattern allocates nothing new.
  EXPECT_EQ(A.capacityBytes(), Cap);
}

//===----------------------------------------------------------------------===//
// Kernels (support/Simd.h), each checked against the semantics it restates:
// the standard comparison operators, Value::hash, and the row-wise
// fingerprint fold.
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

/// Indices where the standard comparison operator \p Name (the filter's
/// row-wise semantics) holds for `Cells[I] <op> C`.
std::vector<uint32_t> standardSelect(const std::vector<Value> &Cells,
                                     std::string_view Name, const Value &C) {
  const ValueTransformer *Op = StandardValueOps::get().find(Name);
  std::vector<uint32_t> Out;
  for (size_t I = 0; I != Cells.size(); ++I) {
    std::optional<Value> V = Op->applyScalar({Cells[I], C});
    if (V && isTruthy(*V))
      Out.push_back(uint32_t(I));
  }
  return Out;
}

TEST(Simd, SelectCmpF64MatchesStandardOps) {
  // Edge inputs around compare()'s tolerant equality (|a-b| <= 1e-9 *
  // max(|a|,|b|,1)): exact hit, within-tolerance, just outside, NaN and
  // infinities, zeros, and plain misses on both sides — against a large
  // constant, zero, and infinity.
  std::vector<double> Xs = {100.0,
                            100.0 + 5e-8,
                            100.0 - 5e-8,
                            100.0 + 1e-6,
                            100.0 - 1e-6,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            0.0,
                            -0.0,
                            1e-10,
                            99.0,
                            101.0,
                            -100.0};
  std::vector<Value> Cells;
  for (double X : Xs)
    Cells.push_back(num(X));
  const std::pair<simd::CmpOp, std::string_view> Ops[] = {
      {simd::CmpOp::Eq, "=="}, {simd::CmpOp::Ne, "!="},
      {simd::CmpOp::Lt, "<"},  {simd::CmpOp::Le, "<="},
      {simd::CmpOp::Gt, ">"},  {simd::CmpOp::Ge, ">="}};
  for (double C : {100.0, 0.0, -0.0, std::numeric_limits<double>::infinity()})
    for (const auto &[Op, Name] : Ops) {
      std::vector<uint32_t> Out(Xs.size());
      Out.resize(simd::selectCmpF64(Xs.data(), Xs.size(), C, Op, Out.data()));
      EXPECT_EQ(Out, standardSelect(Cells, Name, num(C)))
          << Name << " " << C;
    }
}

TEST(Simd, SelectCmpU32MatchesStandardOps) {
  std::vector<Value> Cells;
  std::vector<uint32_t> Ids;
  for (int I = 0; I != 41; ++I) {
    Cells.push_back(str("s" + std::to_string(I % 5)));
    Ids.push_back(Cells.back().strId());
  }
  for (bool Ne : {false, true})
    for (const Value &Target : {str("s3"), str("absent")}) {
      std::vector<uint32_t> Out(Ids.size());
      Out.resize(simd::selectCmpU32(Ids.data(), Ids.size(), Target.strId(),
                                    Ne, Out.data()));
      EXPECT_EQ(Out, standardSelect(Cells, Ne ? "!=" : "==", Target));
    }
}

TEST(Simd, HashKernelsMatchDefinitions) {
  const size_t N = 71;
  std::vector<uint64_t> Ks(N), Seed(N);
  uint64_t S = 0x1234;
  for (size_t I = 0; I != N; ++I) {
    S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    Ks[I] = S;
    Seed[I] = S ^ (I * 0x9e3779b97f4a7c15ULL);
  }
  std::vector<uint64_t> Fnv = Seed;
  simd::fnvCombineU64(Fnv.data(), Ks.data(), N);
  uint64_t Sum = 0, Xor = 0;
  simd::reduceSumXorU64(Seed.data(), N, Sum, Xor);
  uint64_t RefSum = 0, RefXor = 0;
  for (size_t I = 0; I != N; ++I) {
    EXPECT_EQ(Fnv[I], (Seed[I] ^ Ks[I]) * 0x100000001b3ULL);
    RefSum += Seed[I];
    RefXor ^= mixFp(Seed[I]);
  }
  EXPECT_EQ(Sum, RefSum);
  EXPECT_EQ(Xor, RefXor);
}

TEST(Simd, FoldCellKernelsMatchValueHash) {
  // A numeric column with every fast/slow edge: integral values, the 1e15
  // boundary (1e15 - 1 is fast, 1e15 itself is slow), negatives, -0.0,
  // non-integral values, NaN, both infinities — plus str cells to model a
  // foreign-typed lane. The str column likewise gets num intruders.
  std::vector<Value> NumCells = {
      num(0),    num(1),      num(-1),     num(42),
      num(-0.0), num(1e15 - 1), num(-1e15 + 1), num(1e15),
      num(-1e15), num(2.5),   num(-2.5),   num(1.0 / 3.0),
      num(std::numeric_limits<double>::quiet_NaN()),
      num(std::numeric_limits<double>::infinity()),
      num(-std::numeric_limits<double>::infinity()),
      str("intruder"), num(7),  num(123456789)};
  std::vector<Value> StrCells = {str("a"), str("b"), str(""), num(3),
                                 str("a"), str("long-ish token value"),
                                 str("c"), num(2.5), str("d")};
  const uint64_t Seed = 0x9e3779b97f4a7c15ULL;
  // Fast lanes fold Value::hash into the row hash; slow lanes are left
  // untouched and reported in ascending order.
  auto Check = [&](const std::vector<Value> &Cells, bool StrCol,
                   const std::vector<uint32_t> &ExpectSlow) {
    std::vector<uint64_t> RowHs(Cells.size(), Seed);
    std::vector<uint32_t> Slow(Cells.size());
    Slow.resize(StrCol ? simd::foldStrCellsU64(
                             RowHs.data(), Cells.data(), Cells.size(),
                             uint32_t(CellType::Str), 0x5851f42d4c957f2dULL,
                             Slow.data())
                       : simd::foldNumCellsU64(
                             RowHs.data(), Cells.data(), Cells.size(),
                             uint32_t(CellType::Num), 0x2545f4914f6cdd1dULL,
                             Slow.data()));
    EXPECT_EQ(Slow, ExpectSlow);
    for (size_t I = 0; I != Cells.size(); ++I) {
      bool IsSlow =
          std::find(Slow.begin(), Slow.end(), uint32_t(I)) != Slow.end();
      EXPECT_EQ(RowHs[I],
                IsSlow ? Seed : mixFp(Seed ^ uint64_t(Cells[I].hash())))
          << "cell " << I;
    }
  };
  // Everything from index 7 (1e15) through 15 (the str cell) is slow.
  Check(NumCells, false, {7, 8, 9, 10, 11, 12, 13, 14, 15});
  Check(StrCells, true, {3, 7});
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
