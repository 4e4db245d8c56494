//===- smt/RefutationStore.h - Cross-engine refutation sharing --*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier 3 of the deduction substrate: a concurrent store of DEDUCE
/// refutations (⊥ verdicts) reused across solves of the same example —
/// the SynthService workers that re-solve it, and the restarted process
/// that restores it from warm state.
///
/// Soundness of sharing: a DEDUCE verdict is a pure function of
///  - the *query key* — the hypothesis's canonical sketch shape (component
///    tree, input-leaf indices, hole positions; Hypothesis::shapeHash),
///    the spec level, and the concrete abstractions partial evaluation
///    conjoined (for a pure sketch there are none that are not themselves
///    shape-determined), and
///  - the *example* — the input tables (they fix ϕin, the base sets behind
///    α, and every partial-evaluation result) and the output table (ϕout).
///
/// A store instance is scoped to ONE example: the owner of that scope
/// (SynthService::refutationScopeFor, keyed by the example fingerprint)
/// creates it and hands it to every solve of the example, so entries are
/// keyed on the 64-bit query hash alone. A solve handed no store uses
/// none. Search-budget knobs (timeout,
/// component bounds, thread count) do not enter the key: they change how
/// much of the space is explored, never a verdict — which is exactly why
/// jobs with different budgets can share a store.
///
/// Only refutations are stored: UNSAT is the expensive, reusable fact (it
/// prunes and it spares a solver call); SAT merely lets the search
/// continue and is re-derived cheaply by the per-engine verdict cache.
/// The store is best-effort: a capacity cap drops inserts past the bound,
/// which costs speed, never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SMT_REFUTATIONSTORE_H
#define MORPHEUS_SMT_REFUTATIONSTORE_H

#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace morpheus {

/// Concurrent refutation set. Every method may be called from any thread.
class RefutationStore {
public:
  /// \p MaxEntries bounds memory (8B/key + set overhead); inserts past the
  /// bound are dropped. 0 means the default cap.
  explicit RefutationStore(size_t MaxEntries = 0);

  RefutationStore(const RefutationStore &) = delete;
  RefutationStore &operator=(const RefutationStore &) = delete;

  /// True iff \p QueryHash was recorded as refuted. Counts a hit or miss.
  bool isRefuted(uint64_t QueryHash) const;

  /// Records a ⊥ verdict for \p QueryHash (dropped past the capacity cap).
  void recordRefuted(uint64_t QueryHash);

  /// Monotonic counters since construction.
  struct Stats {
    uint64_t Hits = 0;     ///< isRefuted() returned true
    uint64_t Misses = 0;   ///< isRefuted() returned false
    uint64_t Inserts = 0;  ///< recordRefuted() stored a new key
    uint64_t Restored = 0; ///< keys loaded from a persisted state dir
    uint64_t Entries = 0;  ///< keys currently stored
  };
  Stats stats() const;
  size_t size() const;

  /// A sorted copy of every stored key — what a checkpoint persists.
  /// Sorted so checkpoints of identical state are byte-identical files.
  std::vector<uint64_t> keys() const;

  /// Bulk-inserts persisted keys, counting Restored (not Inserts) so the
  /// traffic counters still describe only this process's deductions.
  /// Respects the capacity cap like recordRefuted. Returns the number of
  /// keys actually stored.
  size_t restoreKeys(const std::vector<uint64_t> &Keys);

private:
  /// Sharded to keep portfolio members off each other's locks: deduce is
  /// called thousands of times per second per member.
  static constexpr size_t NumShards = 16;
  struct Shard {
    mutable Mutex M;
    std::unordered_set<uint64_t> Keys GUARDED_BY(M);
  };
  Shard Shards[NumShards];
  size_t MaxEntries;
  mutable std::atomic<uint64_t> Hits{0}, Misses{0}, Inserts{0}, Restored{0};

  Shard &shardFor(uint64_t Key) const {
    // The low bits index buckets inside the set; take high bits here so
    // shard choice and bucket choice stay independent.
    return const_cast<Shard &>(Shards[(Key >> 58) & (NumShards - 1)]);
  }
};

} // namespace morpheus

#endif // MORPHEUS_SMT_REFUTATIONSTORE_H
