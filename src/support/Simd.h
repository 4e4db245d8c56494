//===- support/Simd.h - Data-parallel kernels over columns ------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-parallel kernels the columnar hot path runs over contiguous
/// spans: selection-vector comparison kernels for filter predicates, and
/// the hash-combine loops behind group-by keys and table fingerprints.
/// Each kernel is one plain loop; the compiler is free to vectorize it for
/// the build's target.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SUPPORT_SIMD_H
#define MORPHEUS_SUPPORT_SIMD_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace morpheus {
namespace simd {

/// The kernel tier. There is one: the plain loops below. The benchmark's
/// meta line (perfbench/runner.cpp) stamps simdLevelName(activeSimdLevel())
/// and is the only caller of these two names.
enum class SimdLevel : int { Scalar = 0 };

constexpr SimdLevel activeSimdLevel() { return SimdLevel::Scalar; }

constexpr std::string_view simdLevelName(SimdLevel) { return "scalar"; }

/// Comparison operators of the filter fast path, in the engine's tolerant
/// numeric semantics (interp/ValueOps.cpp compare()).
enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

/// Selection-vector kernel: writes the indices I (ascending) where
/// `Xs[I] <op> C` holds into \p OutIdx (capacity >= N) and returns the
/// count. Semantics match compare() in interp/ValueOps.cpp exactly,
/// including the tolerant equality Value::numEq: with
///   Tol = (A == B) || |A - B| <= 1e-9 * max(max(|A|, |B|), 1)
/// the kernel computes Lt = (A < B) && !Tol, Gt = (B < A) && !Tol,
/// Eq = !Lt && !Gt, and derives every operator from those three — the
/// same truth table the row-wise evaluator produces (NaNs included).
size_t selectCmpF64(const double *Xs, size_t N, double C, CmpOp Op,
                    uint32_t *OutIdx);

/// Selection-vector kernel over interned token/string ids: equality (or
/// inequality when \p Ne) against one id.
size_t selectCmpU32(const uint32_t *Ids, size_t N, uint32_t Id, bool Ne,
                    uint32_t *OutIdx);

/// Hash-combine step of the group-by key hash: for each I,
/// `Hs[I] = (Hs[I] ^ Ks[I]) * 0x100000001b3` (the FNV-1a fold applied per
/// key column).
void fnvCombineU64(uint64_t *Hs, const uint64_t *Ks, size_t N);

/// Fingerprint reduction: Sum = sum(RowHs[I]), Xor = xor(mixFp(RowHs[I]))
/// where mixFp is the table-fingerprint finalizer (table/Table.cpp) — the
/// commutative row-order-insensitive combine of Table::fingerprint.
void reduceSumXorU64(const uint64_t *RowHs, size_t N, uint64_t &Sum,
                     uint64_t &Xor);

/// Raw-cell fused fold kernels: one streamed pass over a column of 16-byte
/// table cells, no staging gather. \p Cells points at the column's Value
/// array (table/Value.h — layout contract: payload double at byte 0,
/// interner id at byte 8, 32-bit type code at byte 12, 16-byte stride;
/// TableTest::ValueRawLayout pins it). Fast lanes fold the cell hash into
/// the running row hash:
///   RowHs[I] = mixFp(RowHs[I] ^ mixInt(key, Salt))
/// where mixInt is Value::hash's integer mixer ((X+Salt)*0x9e3779b97f4a7c15,
/// xor-shift 29, *0xbf58476d1ce4e5b9, xor-shift 32) and mixFp the
/// fingerprint finalizer. Every other lane leaves RowHs[I] UNTOUCHED and
/// appends its index (ascending) to \p SlowIdx (capacity >= N) for the
/// caller to fold with the full Value::hash; both return the slow-lane
/// count. A mixed-typed column therefore needs no separate fallback — its
/// foreign-typed cells simply come back slow.
///
/// foldStrCellsU64: fast lane = type code equals \p TypeCode; key is the
/// cell's interner id.
size_t foldStrCellsU64(uint64_t *RowHs, const void *Cells, size_t N,
                       uint32_t TypeCode, uint64_t Salt, uint32_t *SlowIdx);

/// foldNumCellsU64: fast lane = type code equals \p TypeCode AND the
/// payload is on Value::hash's integral fast path (finite integral
/// |x| < 1e15); key is uint64_t(int64_t(payload)). Non-integral, NaN,
/// and infinite payloads come back slow (printed-form hashing).
size_t foldNumCellsU64(uint64_t *RowHs, const void *Cells, size_t N,
                       uint32_t TypeCode, uint64_t Salt, uint32_t *SlowIdx);

} // namespace simd
} // namespace morpheus

#endif // MORPHEUS_SUPPORT_SIMD_H
