//===- service/WarmState.h - Durable warm state for the service -*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence tier over the two warm stores: the fingerprint-keyed
/// ResultCache (service/ResultCache.h) and the example-scoped refutation
/// stores (smt/RefutationStore.h). At production scale restart cost
/// dominates — every deploy otherwise rebuilds millions of refutations
/// from scratch — so a SynthService given EngineOptions::stateDir()
/// restores both stores at construction and checkpoints them in the
/// background, off the hot path.
///
/// Two files live in the state dir, both in the RecordLog format
/// (io/RecordLog.h):
///
///   results.mstate      one record per cached Solution: problem
///                       fingerprint, outcome, seconds, full search
///                       stats, program s-expression (io/ProgramIO.h).
///                       MRU-first, so a restore into a smaller cache
///                       keeps the hottest entries.
///   refutations.mstate  records of (example fingerprint, key chunk):
///                       the sorted refuted-query keys of each scope,
///                       chunked so one oversized scope cannot produce
///                       an unbounded record.
///
/// Soundness of reuse is carried entirely by keys, never trust:
///  - both files' headers carry warmStateCompatKey() — a hash of the
///    component library (names, signatures, spec formulas at both
///    levels), the spec level and the deduction/partial-eval toggles.
///    Any mismatch (or a format-version mismatch, or header damage)
///    loads EMPTY, never partially: a refutation derived under different
///    specs could unsound-prune, and there is no per-record salvage that
///    can rule that out. Budget knobs (timeout, thread count, component
///    bounds) are deliberately NOT in the key: they change how much gets
///    explored, never a verdict — and ResultCache entries self-key by
///    the full problem fingerprint, which includes the timeout;
///  - restored cache entries re-parse their program against the live
///    library; a record that fails to parse (or decode) is dropped
///    alone, counted in ResultsDropped.
///
/// Crash safety: checkpoints write `<file>.tmp` and atomically rename
/// (publishFile), so a crash mid-checkpoint leaves the previous complete
/// file in place; a torn tail in a published file (CRC-verified) drops
/// only the damaged suffix. Both are exercised by tests/PersistenceTest.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SERVICE_WARMSTATE_H
#define MORPHEUS_SERVICE_WARMSTATE_H

#include "service/ResultCache.h"
#include "support/Sync.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace morpheus {

struct ComponentLibrary; // lang/Component.h
struct SynthesisConfig;  // synth/Synthesizer.h

/// The versioned-invalidation key both state files carry in their header:
/// a process-stable hash of everything that could make a persisted fact
/// unsound under the current configuration. See the file comment for what
/// is (and pointedly is not) included.
uint64_t warmStateCompatKey(const ComponentLibrary &Lib,
                            const SynthesisConfig &Cfg);

/// Counters describing one service's persistence activity. A plain value
/// type; read through WarmState::stats() or ServiceStats::Warm.
struct WarmStateStats {
  uint64_t ResultsLoaded = 0;      ///< cache entries restored at startup
  uint64_t ResultsDropped = 0;     ///< records that failed to decode/parse
  uint64_t RefutationKeysLoaded = 0;
  uint64_t RefutationScopesLoaded = 0;
  uint64_t TornTails = 0;          ///< files whose damaged suffix was cut
  uint64_t FilesRejected = 0;      ///< version/compat/header mismatches
  uint64_t Checkpoints = 0;        ///< snapshots published
  uint64_t CheckpointErrors = 0;   ///< snapshots abandoned (IO failure)
  uint64_t LastCheckpointBytes = 0;
};

/// One service's handle on its state directory: load at construction time,
/// checkpoint periodically. Thread-safe (checkpoint() may race stats());
/// the caller serializes checkpoint() against itself — SynthService runs
/// it from one background thread plus once at shutdown.
class WarmState {
public:
  /// \p Dir must exist; files are created on first checkpoint.
  WarmState(std::string Dir, uint64_t CompatKey);

  std::string resultsPath() const { return Dir + "/results.mstate"; }
  std::string refutationsPath() const { return Dir + "/refutations.mstate"; }

  /// Restores persisted Solutions into \p Cache (ResultCache::restore —
  /// LRU end, WarmLoaded counter). Programs are re-parsed against \p Lib;
  /// failures drop that record only.
  void loadResults(ResultCache &Cache, const ComponentLibrary &Lib);

  /// Streams persisted refutation scopes: \p Sink is called once per
  /// (example fingerprint, key chunk) record. The caller owns placement
  /// (the service's per-example scopes) and capacity policy — return
  /// false from \p Sink to stop early (capacity reached).
  void
  loadRefutations(const std::function<bool(uint64_t, std::vector<uint64_t> &&)>
                      &Sink);

  /// Writes both files from the given snapshots and atomically publishes
  /// them. False when either file could not be written (the previous
  /// files stay in place). \p Results MRU-first (ResultCache::snapshot);
  /// \p Scopes as (example fingerprint, sorted keys).
  bool checkpoint(
      const std::vector<std::pair<uint64_t, Solution>> &Results,
      const std::vector<std::pair<uint64_t, std::vector<uint64_t>>> &Scopes);

  WarmStateStats stats() const;

private:
  const std::string Dir;
  const uint64_t CompatKey;
  mutable Mutex M;
  WarmStateStats Counters GUARDED_BY(M);
};

} // namespace morpheus

#endif // MORPHEUS_SERVICE_WARMSTATE_H
