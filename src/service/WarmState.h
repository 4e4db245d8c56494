//===- service/WarmState.h - Durable warm state for the service -*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence tier over the fingerprint-keyed ResultCache
/// (service/ResultCache.h). A SynthService given EngineOptions::stateDir()
/// restores the cache at construction and checkpoints it in the
/// background, off the hot path, so a restarted process answers the
/// problems it already solved without solving them again.
///
/// One file lives in the state dir, in the RecordLog format
/// (io/RecordLog.h):
///
///   results.mstate      one record per cached Solution: problem
///                       fingerprint, outcome, seconds, full search
///                       stats, program s-expression (io/ProgramIO.h).
///                       MRU-first, so a restore into a smaller cache
///                       keeps the hottest entries.
///
/// Soundness of reuse is carried entirely by keys, never trust:
///  - the file header carries warmStateCompatKey() — a hash of the
///    component library (names, signatures, spec formulas at both
///    levels), the spec level and the deduction/partial-eval toggles,
///    under a seed that moves whenever the record layout does. Any
///    mismatch (or a format-version mismatch, or header damage) loads
///    EMPTY, never partially: an Exhausted verdict reached under
///    different specs may be wrong, and there is no per-record salvage
///    that can rule that out. Budget knobs (timeout, thread count, component
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
#include <string>
#include <vector>

namespace morpheus {

struct ComponentLibrary; // lang/Component.h
struct SynthesisConfig;  // synth/Synthesizer.h

/// The versioned-invalidation key the state file carries in its header:
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

  /// Restores persisted Solutions into \p Cache (ResultCache::restore —
  /// LRU end, WarmLoaded counter). Programs are re-parsed against \p Lib;
  /// failures drop that record only.
  void loadResults(ResultCache &Cache, const ComponentLibrary &Lib);

  /// Writes the results file from \p Results (MRU-first,
  /// ResultCache::snapshot) and atomically publishes it. False when it
  /// could not be written (the previous file stays in place).
  bool checkpoint(const std::vector<std::pair<uint64_t, Solution>> &Results);

  WarmStateStats stats() const;

private:
  const std::string Dir;
  const uint64_t CompatKey;
  mutable Mutex M;
  WarmStateStats Counters GUARDED_BY(M);
};

} // namespace morpheus

#endif // MORPHEUS_SERVICE_WARMSTATE_H
