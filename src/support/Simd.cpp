//===- support/Simd.cpp - Data-parallel kernels over columns ----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each kernel is one plain loop over a contiguous span, branch-light where
// the loop body allows it so the compiler can vectorize it for the build's
// target. The semantics are documented in support/Simd.h.
//
//===----------------------------------------------------------------------===//

#include "support/Simd.h"

#include <cstring>

using namespace morpheus::simd;

namespace {

/// The table-fingerprint finalizer (the murmur3 64-bit mixer). Must match
/// the mixer in table/Table.cpp; the fingerprint reference test
/// (TableTest) guards the pairing.
inline uint64_t mixFp(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// The integer mixer of Value::hash (table/Value.cpp mixInt). Must match;
/// the fingerprint reference tests guard the pairing.
inline uint64_t mixIntHash(uint64_t X, uint64_t Salt) {
  X = (X + Salt) * 0x9e3779b97f4a7c15ULL;
  X ^= X >> 29;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 32;
  return X;
}

/// Restatement of interp/ValueOps.cpp compare() over raw doubles: Lt/Gt
/// are the strict tolerant orders of Value::operator<, Eq their
/// complement, and every operator derives from those three.
inline bool cmpTolerant(double A, double B, CmpOp Op) {
  bool Tol = A == B;
  if (!Tol) {
    double AbsA = A < 0 ? -A : A, AbsB = B < 0 ? -B : B;
    double Scale = AbsA > AbsB ? AbsA : AbsB;
    if (Scale < 1.0)
      Scale = 1.0;
    double D = A - B;
    if (D < 0)
      D = -D;
    Tol = D <= 1e-9 * Scale;
  }
  bool Lt = A < B && !Tol;
  bool Gt = B < A && !Tol;
  bool Eq = !Lt && !Gt;
  switch (Op) {
  case CmpOp::Eq:
    return Eq;
  case CmpOp::Ne:
    return !Eq;
  case CmpOp::Lt:
    return Lt;
  case CmpOp::Le:
    return Lt || Eq;
  case CmpOp::Gt:
    return Gt;
  case CmpOp::Ge:
    return Gt || Eq;
  }
  return false;
}

/// Field reads of the raw 16-byte cells the fold*CellsU64 kernels stream
/// over (layout contract in support/Simd.h; TableTest pins it against
/// table/Value.h empirically).
inline double cellNum(const void *Cells, size_t I) {
  double X;
  std::memcpy(&X, static_cast<const char *>(Cells) + I * 16, sizeof(X));
  return X;
}
inline uint32_t cellId(const void *Cells, size_t I) {
  uint32_t Id;
  std::memcpy(&Id, static_cast<const char *>(Cells) + I * 16 + 8, sizeof(Id));
  return Id;
}
inline uint32_t cellType(const void *Cells, size_t I) {
  uint32_t T;
  std::memcpy(&T, static_cast<const char *>(Cells) + I * 16 + 12, sizeof(T));
  return T;
}

} // namespace

size_t morpheus::simd::selectCmpF64(const double *Xs, size_t N, double C,
                                    CmpOp Op, uint32_t *OutIdx) {
  size_t Count = 0;
  for (size_t I = 0; I != N; ++I) {
    OutIdx[Count] = uint32_t(I);
    Count += size_t(cmpTolerant(Xs[I], C, Op));
  }
  return Count;
}

size_t morpheus::simd::selectCmpU32(const uint32_t *Ids, size_t N,
                                    uint32_t Id, bool Ne, uint32_t *OutIdx) {
  size_t Count = 0;
  for (size_t I = 0; I != N; ++I) {
    OutIdx[Count] = uint32_t(I);
    Count += size_t((Ids[I] == Id) != Ne);
  }
  return Count;
}

void morpheus::simd::fnvCombineU64(uint64_t *Hs, const uint64_t *Ks,
                                   size_t N) {
  for (size_t I = 0; I != N; ++I)
    Hs[I] = (Hs[I] ^ Ks[I]) * 0x100000001b3ULL;
}

void morpheus::simd::reduceSumXorU64(const uint64_t *RowHs, size_t N,
                                     uint64_t &Sum, uint64_t &Xor) {
  uint64_t S = 0, X = 0;
  for (size_t I = 0; I != N; ++I) {
    S += RowHs[I];
    X ^= mixFp(RowHs[I]);
  }
  Sum = S;
  Xor = X;
}

size_t morpheus::simd::foldStrCellsU64(uint64_t *RowHs, const void *Cells,
                                       size_t N, uint32_t TypeCode,
                                       uint64_t Salt, uint32_t *SlowIdx) {
  size_t NSlow = 0;
  for (size_t I = 0; I != N; ++I) {
    if (cellType(Cells, I) == TypeCode)
      RowHs[I] = mixFp(RowHs[I] ^ mixIntHash(cellId(Cells, I), Salt));
    else
      SlowIdx[NSlow++] = uint32_t(I);
  }
  return NSlow;
}

size_t morpheus::simd::foldNumCellsU64(uint64_t *RowHs, const void *Cells,
                                       size_t N, uint32_t TypeCode,
                                       uint64_t Salt, uint32_t *SlowIdx) {
  size_t NSlow = 0;
  for (size_t I = 0; I != N; ++I) {
    double X = cellNum(Cells, I);
    // The integral fast path of Value::hash: |x| < 1e15 is false for NaN
    // and infinity, so the one comparison covers isfinite too, and for a
    // finite x "x == trunc(x)" is the same predicate as "x == floor(x)".
    double AbsX = X < 0 ? -X : X;
    if (cellType(Cells, I) == TypeCode && AbsX < 1e15 &&
        X == (double)(int64_t)X)
      RowHs[I] = mixFp(RowHs[I] ^ mixIntHash(uint64_t(int64_t(X)), Salt));
    else
      SlowIdx[NSlow++] = uint32_t(I);
  }
  return NSlow;
}
