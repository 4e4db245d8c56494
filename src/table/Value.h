//===- table/Value.h - Table cell values ------------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines Value, the cell domain of tables. Following the paper
/// (Definition 1), a cell is either a number (num) or a string. Numbers are
/// stored as doubles; integral values print without a fractional part so
/// synthesized tables render like the R data frames in the paper.
///
/// Value is the unit the synthesis inner loop copies, compares and hashes
/// millions of times per task, so it is a trivially copyable 16-byte tagged
/// scalar: strings live in the process-global StringInterner and a cell
/// carries only the 32-bit id. Equality and hashing of string cells are
/// integer ops; ordering goes through the interner's sorted-rank table
/// (integer compares in the steady state, see Interner.h).
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_TABLE_VALUE_H
#define MORPHEUS_TABLE_VALUE_H

#include "table/Interner.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace morpheus {

/// The two cell types of Definition 1.
enum class CellType { Num, Str };

/// Returns a printable name ("num" / "str") for \p T.
std::string_view cellTypeName(CellType T);

/// A single table cell: a number or an interned string.
///
/// Values are totally ordered (numbers before strings, numbers by value,
/// strings lexicographically) so tables can be sorted deterministically.
class Value {
public:
  Value() : Num(0), StrId(0), Type(CellType::Num) {}

  /// Creates a numeric value.
  static Value number(double N) {
    Value V;
    V.Num = N;
    return V;
  }

  /// Creates a string value, interning the text.
  static Value str(std::string_view S) {
    return strOfId(StringInterner::global().intern(S));
  }

  /// Creates a string value from an id the interner already handed out
  /// (a column's NameId, a canonical token); no interner call.
  static Value strOfId(uint32_t Id) {
    Value V;
    V.Type = CellType::Str;
    V.StrId = Id;
    return V;
  }

  CellType type() const { return Type; }
  bool isNum() const { return Type == CellType::Num; }
  bool isStr() const { return Type == CellType::Str; }

  double num() const {
    assert(isNum() && "not a numeric cell");
    return Num;
  }

  /// The interner id of a string cell.
  uint32_t strId() const {
    assert(isStr() && "not a string cell");
    return StrId;
  }

  const std::string &strVal() const {
    assert(isStr() && "not a string cell");
    return StringInterner::global().text(StrId);
  }

  /// Renders the value the way R prints data-frame cells: integral numbers
  /// without a decimal point, other numbers with up to 7 significant digits.
  std::string toString() const;

  /// The interner id of the value's printed form: a string cell's own id, a
  /// numeric cell's toString() id. A number is not interned per call: a
  /// per-thread cache maps its bit pattern to the id, and only the first
  /// sight of a number on a thread (or a cache eviction) reaches the
  /// interner. Tokens canonicalize the printed equivalence the row-major
  /// engine keyed its group/distinct/spread maps on (where num 3 and str
  /// "3" coincide), as one integer.
  uint32_t canonicalToken() const;

  /// canonicalToken tagged with the cell type in the low bit — the row-key
  /// unit of every grouping/dedupe map in the engine.
  uint64_t typedToken() const {
    return (uint64_t(canonicalToken()) << 1) | uint64_t(isStr());
  }

  /// Exact structural equality. Numeric comparison uses a small relative
  /// tolerance so values that round-trip through arithmetic (e.g. the
  /// proportions of motivating Example 2) still compare equal. String
  /// comparison is one integer compare.
  bool operator==(const Value &Other) const {
    if (Type != Other.Type)
      return false;
    if (isStr())
      return StrId == Other.StrId;
    return numEq(Num, Other.Num);
  }
  bool operator!=(const Value &Other) const { return !(*this == Other); }

  /// Total order: num < str; nums by value; strings lexicographically
  /// (via the interner's rank table).
  bool operator<(const Value &Other) const {
    if (Type != Other.Type)
      return Type == CellType::Num; // numbers order before strings
    if (isNum())
      return Num < Other.Num && !numEq(Num, Other.Num);
    return StringInterner::global().less(StrId, Other.StrId);
  }

  /// Hash usable with unordered containers; consistent with operator== for
  /// values produced by toString-stable arithmetic (strings hash their
  /// interner id; numbers hash their printed form so tolerant equality and
  /// hashing agree). The two hot cases are inline: a string's id (ids are
  /// unique per text), and an integral number below 1e15, whose printed
  /// form is its exact decimal digits, so hashing the integer is hashing
  /// the printed form. Everything else formats the number (hashPrinted).
  size_t hash() const {
    if (isStr())
      return mixInt(StrId, StrSalt);
    if (std::fabs(Num) < 1e15 && Num == std::floor(Num))
      return mixInt(uint64_t(int64_t(Num)), NumSalt);
    return hashPrinted();
  }

  /// The tolerant numeric comparison used by operator== on num cells.
  static bool numEq(double A, double B);

private:
  static constexpr uint64_t StrSalt = 0x5851f42d4c957f2dULL;
  static constexpr uint64_t NumSalt = 0x2545f4914f6cdd1dULL;

  static size_t mixInt(uint64_t X, uint64_t Salt) {
    X = (X + Salt) * 0x9e3779b97f4a7c15ULL;
    X ^= X >> 29;
    X *= 0xbf58476d1ce4e5b9ULL;
    X ^= X >> 32;
    return size_t(X);
  }

  /// hash() of a number off the integral fast path: non-integral, NaN,
  /// infinite or |x| >= 1e15.
  size_t hashPrinted() const;

  double Num;
  uint32_t StrId;
  CellType Type;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte scalar");
static_assert(std::is_trivially_copyable<Value>::value,
              "Value must stay trivially copyable");

struct ValueHash {
  size_t operator()(const Value &V) const { return V.hash(); }
};

} // namespace morpheus

#endif // MORPHEUS_TABLE_VALUE_H
