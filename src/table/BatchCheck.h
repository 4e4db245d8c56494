//===- table/BatchCheck.h - Batched candidate-output checking ---*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batched candidate checking: the synthesis inner loop compares millions
/// of candidate output tables against one expected table, and virtually
/// all of them lose. BatchChecker accumulates sibling candidates (the N
/// completions of one sketch hole), lays their order-insensitive 64-bit
/// fingerprints out contiguously, and rejects the whole batch with one
/// equality sweep (support/Simd.h findEqualU64); only fingerprint
/// hits fall back to the scalar confirm (Table::equalsUnordered).
///
/// Semantics are identical to the scalar candidate check
///   T.numRows() == E.numRows() && T.schema() == E.schema() &&
///   T.fingerprint() == E.fingerprint() && T.equalsUnordered(E)
/// including its fingerprint gate, so batched and scalar search accept
/// exactly the same candidates. Ordered comparison (equalsOrdered) is NOT
/// supported here: the reference ordered check is not fingerprint-gated,
/// and a fingerprint sweep could miss tolerantly-equal tables whose
/// printed forms differ; ordered-compare tasks stay on the scalar path.
///
/// Thread model: a BatchChecker is per-search-thread state (like the
/// Synthesizer that owns it) — no locking, no sharing. The expected table
/// it holds a reference to IS shared across portfolio threads; that is
/// safe because Table's fingerprint/permutation caches are published with
/// the atomic protocol documented in table/Table.h.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_TABLE_BATCHCHECK_H
#define MORPHEUS_TABLE_BATCHCHECK_H

#include "support/Simd.h"
#include "table/Table.h"

#include <vector>

namespace morpheus {

class BatchChecker {
public:
  /// Batch width: fingerprints per sweep. 64 keeps the fingerprint array
  /// in one cache line pair while amortizing the sweep setup.
  static constexpr size_t Capacity = 64;

  /// \p Expected must outlive the checker (the synthesizer's expected
  /// output does; it is owned by the ExampleContext).
  explicit BatchChecker(const Table &Expected)
      : Expected(Expected), ExpectedFp(Expected.fingerprint()) {
    Batch.reserve(Capacity);
  }

  /// Enqueues a candidate, pre-gating on the cheap shape checks the scalar
  /// path applies first (row and column counts). Returns true when the
  /// candidate was enqueued — the caller keeps any per-candidate payload
  /// (the enumerated term) only for enqueued candidates, aligned by index.
  bool add(Table Candidate) {
    if (Candidate.numRows() != Expected.numRows() ||
        Candidate.numCols() != Expected.numCols())
      return false;
    Batch.push_back(std::move(Candidate));
    return true;
  }

  bool full() const { return Batch.size() >= Capacity; }
  size_t size() const { return Batch.size(); }

  /// Sweeps the pending batch: returns the batch index (insertion order)
  /// of the first candidate equal to the expected table, or simd::npos.
  /// First-match-wins in insertion order — the same winner the scalar
  /// one-at-a-time check selects. Clears the batch either way.
  size_t flush();

private:
  const Table &Expected;
  uint64_t ExpectedFp;
  std::vector<Table> Batch;
};

/// One-shot convenience over a prebuilt candidate list (benchmarks,
/// tests): index into \p Candidates of the first table equal to
/// \p Expected under unordered comparison, or simd::npos.
size_t checkCandidates(const Table &Expected,
                       const std::vector<Table> &Candidates);

} // namespace morpheus

#endif // MORPHEUS_TABLE_BATCHCHECK_H
