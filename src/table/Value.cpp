//===- table/Value.cpp - Table cell values --------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "table/Value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

using namespace morpheus;

std::string_view morpheus::cellTypeName(CellType T) {
  return T == CellType::Num ? "num" : "str";
}

namespace {

/// Prints \p N the way toString does, into \p Buf; returns the length.
size_t printNum(double N, char (&Buf)[48]) {
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 1e15)
    return size_t(std::snprintf(Buf, sizeof(Buf), "%.0f", N));
  return size_t(std::snprintf(Buf, sizeof(Buf), "%.7g", N));
}

} // namespace

std::string Value::toString() const {
  if (isStr())
    return strVal();
  char Buf[48];
  size_t Len = printNum(Num, Buf);
  return std::string(Buf, Len);
}

uint32_t Value::canonicalToken() const {
  if (isStr())
    return StrId;
  // Numeric cells recur massively inside the grouping/distinct kernels and
  // the abstraction, so a thread-local cache maps bit pattern -> token: the
  // common case costs a load or two instead of a printf plus a trip through
  // the interner's mutex. Tokens are process-global, so caching per thread
  // is sound. The cache is 2-way set-associative with most-recent-first
  // ways, so two hot numbers that hash to one set do not evict each other
  // on every alternate call; a slot's Token is id + 1, 0 meaning empty.
  struct Entry {
    uint64_t Bits;
    uint32_t Token;
  };
  constexpr unsigned LogSets = 10; // 1024 sets x 2 ways x 16 B = 32 KiB
  static thread_local Entry Cache[size_t(1) << LogSets][2] = {};
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Num), "double must be 64-bit");
  std::memcpy(&Bits, &Num, sizeof(Bits));
  Entry *Set = Cache[(Bits * 0x9e3779b97f4a7c15ULL) >> (64 - LogSets)];
  if (Set[0].Token && Set[0].Bits == Bits)
    return Set[0].Token - 1;
  if (Set[1].Token && Set[1].Bits == Bits) {
    std::swap(Set[0], Set[1]);
    return Set[0].Token - 1;
  }
  char Buf[48];
  size_t Len = printNum(Num, Buf);
  uint32_t Token =
      StringInterner::global().intern(std::string_view(Buf, Len));
  Set[1] = Set[0];
  Set[0] = {Bits, Token + 1};
  return Token;
}

bool Value::numEq(double A, double B) {
  if (A == B)
    return true;
  // Tolerant comparison for derived numeric cells (e.g. 2/3 printed as
  // 0.6666667 in the paper's Example 2).
  double Scale = std::fmax(std::fabs(A), std::fabs(B));
  return std::fabs(A - B) <= 1e-9 * std::fmax(Scale, 1.0);
}

namespace {

inline size_t mixInt(uint64_t X, uint64_t Salt) {
  X = (X + Salt) * 0x9e3779b97f4a7c15ULL;
  X ^= X >> 29;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 32;
  return size_t(X);
}

} // namespace

size_t Value::hash() const {
  if (isStr()) {
    // Ids are unique per text, so mixing the id hashes the content.
    return mixInt(StrId, 0x5851f42d4c957f2dULL);
  }
  // Numbers hash their *printed form's* equivalence class, so tolerant
  // equality and hashing agree for all values that arise in practice
  // (7 significant digits). The hot case — integral values, the bulk of
  // every table — skips formatting entirely: an integral below 1e15
  // prints as its exact decimal digits, so hashing the integer IS hashing
  // the printed form.
  if (std::isfinite(Num) && Num == std::floor(Num) && std::fabs(Num) < 1e15)
    return mixInt(uint64_t(int64_t(Num)), 0x2545f4914f6cdd1dULL);
  char Buf[48];
  size_t Len = std::snprintf(Buf, sizeof(Buf), "%.7g", Num);
  // A non-integral value can still print as a pure integer ("3" for
  // 3.0000000001); remap it onto the integral fast path so the two hash
  // together, like their printed forms.
  bool PureInt = Len > 0;
  for (size_t I = (Buf[0] == '-' ? 1 : 0); I != Len && PureInt; ++I)
    PureInt = Buf[I] >= '0' && Buf[I] <= '9';
  if (PureInt && Len > size_t(Buf[0] == '-'))
    return mixInt(uint64_t(std::strtoll(Buf, nullptr, 10)),
                  0x2545f4914f6cdd1dULL);
  return std::hash<std::string_view>()(std::string_view(Buf, Len));
}
