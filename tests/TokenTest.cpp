//===- tests/TokenTest.cpp - Tokens vs printed text ---------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesis hot path builds string cells from interner ids (a
/// number's canonical token, a column's NameId, memoized unite/separate
/// results) instead of from printed text. These tests pin that the two
/// agree:
///  - token/text parity over random and boundary doubles and over strings;
///  - kernel golden cases whose expected tables were recorded with the
///    text-building kernels (gather over mixed columns, unite over num x str
///    and str x num, spread whose keys sort differently as text than as
///    numbers, separate answering a repeat from its memo);
///  - a 4-thread stress that runs the kernels and canonicalToken on freshly
///    minted strings at once (the tsan CI job runs it under TSan).
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace morpheus;

namespace {

std::optional<Table> applyComponent(const char *Name, const Table &In,
                                    std::vector<TermPtr> Args) {
  return StandardComponents::get().find(Name)->apply({In}, Args);
}

/// Schema, cells (string ids, exact doubles) and rendering all agree.
void expectSameTable(const Table &Got, const Table &Want) {
  EXPECT_TRUE(Got.schema() == Want.schema());
  EXPECT_EQ(Got.schema().names(), Want.schema().names());
  EXPECT_TRUE(Got.equalsOrdered(Want));
  EXPECT_EQ(Got.toString(), Want.toString());
}

std::vector<double> boundaryDoubles() {
  return {0.0,         -0.0,         1.0,          -1.0,
          1e15,        -1e15,        1e15 - 1,     1e15 + 1,
          -(1e15 - 1), -(1e15 + 1),  0.1 + 0.2,    0.3,
          1e-7,        -1e-7,        123456.75,    123456.8,
          -1e20,       -123456789.5, -9007199254740993.0,
          2.0 / 3.0,   1.00000049999, 1.0000005001, 3.0000000001,
          1e300,       -1e300,       5e-324,       HUGE_VAL,
          -HUGE_VAL,   std::nan("")};
}

/// A number's token-built string cell equals the cell interned from its
/// printed text, hashes the same and renders the same.
void expectTokenMatchesText(double D) {
  Value V = Value::number(D);
  Value FromText = Value::str(V.toString());
  Value FromToken = Value::strOfId(V.canonicalToken());
  EXPECT_EQ(FromToken, FromText) << V.toString();
  EXPECT_EQ(FromToken.hash(), FromText.hash()) << V.toString();
  EXPECT_EQ(FromToken.strVal(), V.toString());
  EXPECT_EQ(V.canonicalToken(), FromText.strId()) << V.toString();
}

TEST(TokenParity, BoundaryDoubles) {
  for (double D : boundaryDoubles())
    expectTokenMatchesText(D);
  // Numbers that print alike share a token.
  EXPECT_EQ(num(1e15).canonicalToken(), num(1e15 + 1).canonicalToken());
  EXPECT_EQ(num(0.1 + 0.2).canonicalToken(), num(0.3).canonicalToken());
  // -0 prints as 0, like R, so it shares 0's token.
  EXPECT_EQ(num(0.0).canonicalToken(), num(-0.0).canonicalToken());
}

TEST(TokenParity, RandomDoublesSurviveCacheEvictions) {
  std::mt19937_64 Rng(20240611);
  std::uniform_real_distribution<double> Wide(-1e9, 1e9);
  std::uniform_int_distribution<int64_t> Ints(-100000, 100000);
  std::vector<double> Ds;
  for (int I = 0; I != 4000; ++I) {
    Ds.push_back(Wide(Rng));
    Ds.push_back(double(Ints(Rng)));
    Ds.push_back(double(Ints(Rng)) / 8.0);
  }
  // Far more numbers than cache slots: the second pass re-derives most
  // tokens after an eviction, and must still agree with the first.
  std::vector<uint32_t> First;
  for (double D : Ds) {
    expectTokenMatchesText(D);
    First.push_back(num(D).canonicalToken());
  }
  for (size_t I = Ds.size(); I-- != 0;)
    EXPECT_EQ(num(Ds[I]).canonicalToken(), First[I]);
}

TEST(TokenParity, StringsAreTheirOwnToken) {
  for (const char *S : {"", "a", "10", "-1", "1e+15", "x_y", "héllo"}) {
    Value V = str(S);
    EXPECT_EQ(V.canonicalToken(), V.strId());
    EXPECT_EQ(Value::str(V.toString()), V);
    EXPECT_EQ(Value::strOfId(V.canonicalToken()).hash(), V.hash());
  }
  // A number and the string of its printed form share a token, not a type.
  EXPECT_EQ(num(3).canonicalToken(), str("3").canonicalToken());
  EXPECT_NE(num(3).typedToken(), str("3").typedToken());
}

//===----------------------------------------------------------------------===//
// Kernel golden cases (expected tables recorded with the text kernels)
//===----------------------------------------------------------------------===//

TEST(KernelGolden, GatherOverMixedColumnsCoercesByPrintedForm) {
  Table In = makeTable({{"id", CellType::Num},
                        {"a", CellType::Num},
                        {"b", CellType::Str},
                        {"c", CellType::Num}},
                       {{num(1), num(2.5), str("x"), num(-0.0)},
                        {num(2), num(10), str("9"), num(1e15 + 1)},
                        {num(3), num(0.1 + 0.2), str("-1"), num(123456.75)}});
  std::optional<Table> Out =
      applyComponent("gather", In,
                     {Term::nameLit("key"), Term::nameLit("val"),
                      Term::colsLit({"a", "b", "c"})});
  ASSERT_TRUE(Out);
  Table Want = makeTable(
      {{"id", CellType::Num}, {"key", CellType::Str}, {"val", CellType::Str}},
      {{num(1), str("a"), str("2.5")},
       {num(1), str("b"), str("x")},
       {num(1), str("c"), str("0")},
       {num(2), str("a"), str("10")},
       {num(2), str("b"), str("9")},
       {num(2), str("c"), str("1e+15")},
       {num(3), str("a"), str("0.3")},
       {num(3), str("b"), str("-1")},
       {num(3), str("c"), str("123456.8")}});
  expectSameTable(*Out, Want);
}

Table uniteInput() {
  return makeTable({{"n", CellType::Num},
                    {"s", CellType::Str},
                    {"k", CellType::Num}},
                   {{num(1.5), str("a"), num(1)},
                    {num(10), str("b"), num(2)},
                    {num(-0.0), str("a"), num(3)},
                    {num(1e-7), str("1.5"), num(4)},
                    {num(1.5), str("a"), num(5)}});
}

TEST(KernelGolden, UniteNumByStr) {
  std::optional<Table> Out =
      applyComponent("unite", uniteInput(),
                     {Term::nameLit("u"), Term::colRef("n"),
                      Term::colRef("s")});
  ASSERT_TRUE(Out);
  Table Want = makeTable({{"u", CellType::Str}, {"k", CellType::Num}},
                         {{str("1.5_a"), num(1)},
                          {str("10_b"), num(2)},
                          {str("0_a"), num(3)},
                          {str("1e-07_1.5"), num(4)},
                          {str("1.5_a"), num(5)}});
  expectSameTable(*Out, Want);
}

TEST(KernelGolden, UniteStrByNum) {
  std::optional<Table> Out =
      applyComponent("unite", uniteInput(),
                     {Term::nameLit("u"), Term::colRef("s"),
                      Term::colRef("n")});
  ASSERT_TRUE(Out);
  Table Want = makeTable({{"u", CellType::Str}, {"k", CellType::Num}},
                         {{str("a_1.5"), num(1)},
                          {str("b_10"), num(2)},
                          {str("a_0"), num(3)},
                          {str("1.5_1e-07"), num(4)},
                          {str("a_1.5"), num(5)}});
  expectSameTable(*Out, Want);
}

TEST(KernelGolden, SpreadSortsKeysAsText) {
  // As numbers the keys sort -1, 9, 10; as text "-1" < "10" < "9".
  Table In = makeTable(
      {{"id", CellType::Num}, {"key", CellType::Num}, {"val", CellType::Num}},
      {{num(1), num(10), num(100)},
       {num(1), num(9), num(90)},
       {num(1), num(-1), num(-10)},
       {num(2), num(9), num(180)},
       {num(2), num(-1), num(-20)},
       {num(2), num(10), num(200)}});
  std::optional<Table> Out = applyComponent(
      "spread", In, {Term::colRef("key"), Term::colRef("val")});
  ASSERT_TRUE(Out);
  Table Want = makeTable({{"id", CellType::Num},
                          {"-1", CellType::Num},
                          {"10", CellType::Num},
                          {"9", CellType::Num}},
                         {{num(1), num(-10), num(100), num(90)},
                          {num(2), num(-20), num(200), num(180)}});
  expectSameTable(*Out, Want);
}

TEST(KernelGolden, SpreadRejectsAKeyNamingASurvivingColumn) {
  Table In = makeTable(
      {{"id", CellType::Str}, {"key", CellType::Str}, {"val", CellType::Num}},
      {{str("r"), str("id"), num(1)}, {str("r"), str("x"), num(2)}});
  EXPECT_FALSE(applyComponent("spread", In,
                              {Term::colRef("key"), Term::colRef("val")}));
}

TEST(KernelGolden, SeparateAnswersRepeatsFromItsMemo) {
  Table In = makeTable({{"id", CellType::Num}, {"ab", CellType::Str}},
                       {{num(1), str("x_1")}, {num(2), str("y-2.5")}});
  Table Want = makeTable({{"id", CellType::Num},
                          {"a", CellType::Str},
                          {"b", CellType::Str}},
                         {{num(1), str("x"), str("1")},
                          {num(2), str("y"), str("2.5")}});
  Table Bad = makeTable({{"ab", CellType::Str}}, {{str("x_1")}, {str("_z")}});
  for (int Round = 0; Round != 2; ++Round) {
    std::optional<Table> Out = applyComponent(
        "separate", In,
        {Term::colRef("ab"), Term::nameLit("a"), Term::nameLit("b")});
    ASSERT_TRUE(Out);
    expectSameTable(*Out, Want);
    // A cell that does not split in two fails the call, memo or not.
    EXPECT_FALSE(applyComponent(
        "separate", Bad,
        {Term::colRef("ab"), Term::nameLit("a"), Term::nameLit("b")}));
  }
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

/// One thread's work for round \p Round: gather, unite and spread over
/// tables whose strings and numbers are new to the process, plus the
/// canonical tokens of the round's numbers.
struct RoundOutput {
  std::vector<Table> Tables;
  std::vector<double> Numbers;
  std::vector<uint32_t> Tokens;
};

RoundOutput runRound(unsigned Round) {
  std::string P = "fresh" + std::to_string(Round) + "_";
  double Base = 7777.0 + Round * 1000.0;
  Table In = makeTable({{"id", CellType::Str},
                        {"k", CellType::Num},
                        {"v", CellType::Num},
                        {P + "s", CellType::Str}},
                       {});
  std::vector<Row> Rows;
  for (unsigned R = 0; R != 6; ++R)
    Rows.push_back({str(P + "id" + std::to_string(R / 3)),
                    num(Base + (R % 3) + 0.125), num(Base * 2 + R + 0.5),
                    str(P + "cell" + std::to_string(R))});
  In = Table(In.schema(), Rows);

  RoundOutput Out;
  std::optional<Table> G = applyComponent(
      "gather", In,
      {Term::nameLit(P + "key"), Term::nameLit(P + "val"),
       Term::colsLit({"k", P + "s"})});
  std::optional<Table> U = applyComponent(
      "unite", In,
      {Term::nameLit(P + "u"), Term::colRef(P + "s"), Term::colRef("k")});
  // Spread over (id, k, v): every id row holds each of the three keys once.
  std::optional<Table> S = applyComponent(
      "spread",
      *applyComponent("select", In, {Term::colsLit({"id", "k", "v"})}),
      {Term::colRef("k"), Term::colRef("v")});
  for (std::optional<Table> *T : {&G, &U, &S}) {
    EXPECT_TRUE(T->has_value());
    Out.Tables.push_back(T->value_or(Table()));
  }
  for (unsigned I = 0; I != 64; ++I) {
    Out.Numbers.push_back(Base * 3 + I * 0.0625);
    Out.Tokens.push_back(num(Out.Numbers.back()).canonicalToken());
  }
  return Out;
}

TEST(TokenConcurrency, FourThreadsMintTheSameStrings) {
  constexpr unsigned Threads = 4, Rounds = 40;
  std::vector<std::vector<RoundOutput>> Got(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&Got, T] {
      for (unsigned R = 0; R != Rounds; ++R)
        Got[T].push_back(runRound(R));
    });
  for (std::thread &Th : Pool)
    Th.join();

  // Single-thread reference, once every string exists.
  for (unsigned R = 0; R != Rounds; ++R) {
    RoundOutput Want = runRound(R);
    for (unsigned T = 0; T != Threads; ++T) {
      ASSERT_EQ(Got[T][R].Tables.size(), Want.Tables.size());
      for (size_t I = 0; I != Want.Tables.size(); ++I)
        expectSameTable(Got[T][R].Tables[I], Want.Tables[I]);
      EXPECT_EQ(Got[T][R].Tokens, Want.Tokens);
    }
    for (size_t I = 0; I != Want.Tokens.size(); ++I)
      EXPECT_EQ(StringInterner::global().text(Want.Tokens[I]),
                num(Want.Numbers[I]).toString());
  }
}

} // namespace
