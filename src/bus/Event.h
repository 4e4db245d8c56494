//===- bus/Event.h - Typed synthesis events ---------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event taxonomy of the synthesis event bus (bus/EventBus.h): one
/// small value type covering everything the search engine and the serving
/// layer can report off the hot path. Events are cheap to construct and
/// copy — five scalars plus three usually-null shared_ptr payload slots —
/// so hot paths publish them by value and the drain thread fans them out
/// to subscribers in batches.
///
/// Frequency classes (what keeps the bus off the hot path):
///  - per-occurrence events are only published at sites that fire at most
///    a few thousand times per solve (sketches, job/cache traffic);
///  - the truly hot sites — hole fills and candidate checks, which run
///    millions of times — are BATCHED: one HoleFillBatch event per sketch
///    completion;
///  - deduction publishes nothing;
///  - the per-run aggregate (EngineFinished) carries the engine run's
///    SynthesisStats snapshot, the same counters the in-band Solution
///    reports for a sequential solve.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_BUS_EVENT_H
#define MORPHEUS_BUS_EVENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace morpheus {

struct SynthesisStats; // synth/Synthesizer.h
struct Problem;        // api/Engine.h

/// What happened. Every kind documents its payload-field meaning; fields
/// not mentioned are zero/null.
enum class EventKind : uint8_t {
  // --- search engine (one per occurrence) ---
  SketchGenerated,    ///< A = sketch size (number of components)
  SketchRefuted,      ///< A = sketch size; deduction proved it dead
  // --- search engine (batched: millions of fills collapse to one) ---
  HoleFillBatch,      ///< one completed sketch: closes the span its
                      ///< SketchGenerated opened
  // --- per-run aggregate ---
  EngineFinished,     ///< one engine run ended; Stats = its full counters,
                      ///< A = 1 when it found a program
  // --- result cache ---
  CacheHit,           ///< A = job id, B = problem fingerprint
  CacheEvict,         ///< B = evicted problem fingerprint
  CacheCoalesce,      ///< A = job id joined an in-flight solve, B = fp
  // --- service job lifecycle ---
  JobSubmitted,       ///< A = job id, B = problem fp, C = priority
                      ///< (int64), D = deadline ms (0 none), Prob =
                      ///< problem snapshot
  JobCompleted,       ///< A = job id, B = problem fp, C = Outcome,
                      ///< D = ResultSource, Text = program sexp if solved
  JobTimeout,         ///< A = job id, B = fp, C = 1 queue-expiry / 0
                      ///< rider shed mid-solve (JobCompleted also fires)
  JobStarted,         ///< A = job id, B = fp; a worker picked the job up
                      ///< (queue wait ended). Cache hits never fire this.
  // --- durable warm state (service/WarmState.h) ---
  WarmStateLoaded,    ///< a state dir was restored at service start;
                      ///< A = cache entries loaded, B = refutation keys
                      ///< loaded, C = torn-tail records dropped, D = 1
                      ///< when any file was rejected (version/compat)
  CheckpointSaved,    ///< a background checkpoint published; A = cache
                      ///< entries written, B = refutation keys written,
                      ///< C = bytes written, D = 1 final (shutdown) / 0
                      ///< periodic
  // --- cluster tier (cluster/Cluster.h) ---
  JobForwarded,       ///< the coordinator shipped a job to a shard;
                      ///< A = request id, B = problem fp, C = worker
                      ///< index, D = attempt number (1-based)
  WorkerUp,           ///< a worker link completed its handshake;
                      ///< A = worker index
  WorkerDown,         ///< a worker link dropped (connect failure, frame
                      ///< corruption, refused handshake or EOF);
                      ///< A = worker index, B = in-flight jobs reassigned
};

constexpr unsigned NumEventKinds = unsigned(EventKind::WorkerDown) + 1;

/// Bit of \p K inside a subscription's kind mask.
constexpr uint64_t eventKindBit(EventKind K) {
  return uint64_t(1) << unsigned(K);
}

/// Mask accepting every kind.
constexpr uint64_t AllEventKinds = (uint64_t(1) << NumEventKinds) - 1;

/// Printable name ("sketch-generated", "job-submitted", ...) of \p K.
std::string_view eventKindName(EventKind K);

/// One bus event. TimeNs is stamped by EventBus::publish (nanoseconds
/// since the bus's construction, steady clock); ExampleFp scopes the
/// event to the input/output example it concerns (0 when not applicable).
struct Event {
  EventKind Kind = EventKind::SketchGenerated;
  uint64_t TimeNs = 0;
  uint64_t ExampleFp = 0;
  uint64_t A = 0, B = 0, C = 0, D = 0; ///< kind-specific (see EventKind)
  /// Heavy payloads ride shared_ptrs so publishing stays allocation-free
  /// for the common scalar-only kinds.
  std::shared_ptr<const SynthesisStats> Stats; ///< EngineFinished
  std::shared_ptr<const Problem> Prob;         ///< JobSubmitted
  std::shared_ptr<const std::string> Text;     ///< program s-expression

  Event() = default;
  Event(EventKind K, uint64_t Fp, uint64_t A = 0, uint64_t B = 0,
        uint64_t C = 0, uint64_t D = 0)
      : Kind(K), ExampleFp(Fp), A(A), B(B), C(C), D(D) {}
};

} // namespace morpheus

#endif // MORPHEUS_BUS_EVENT_H
