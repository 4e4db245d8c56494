//===- synth/Synthesizer.h - Top-level synthesis algorithm ------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MORPHEUS synthesis algorithm (Section 5, Algorithm 1): a worklist of
/// hypotheses ordered by an n-gram cost model, SMT-based deduction to
/// refute hypotheses and sketches, and bottom-up sketch completion with
/// table-driven type inhabitation and partial evaluation (Sections 6–7).
///
/// All the knobs the paper's evaluation varies are configuration:
/// deduction on/off ("No deduction" column of Figure 16), Spec 1 vs Spec 2,
/// partial evaluation on/off (Figure 17), and n-gram vs plain size ordering
/// (ablation).
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SYNTH_SYNTHESIZER_H
#define MORPHEUS_SYNTH_SYNTHESIZER_H

#include "api/CancellationToken.h"
#include "lang/Hypothesis.h"
#include "ngram/NGramModel.h"
#include "smt/Deduce.h"

#include <algorithm>
#include <chrono>
#include <optional>

namespace morpheus {

class EventBus; // bus/EventBus.h

/// Configuration of one synthesis run.
struct SynthesisConfig {
  /// Specification family used by deduction.
  SpecLevel Level = SpecLevel::Spec2;
  /// Disables SMT deduction entirely (pure enumerative search with
  /// concrete evaluation, the paper's "No deduction" baseline).
  bool UseDeduction = true;
  /// Disables partial evaluation inside deduction and candidate-universe
  /// finitization from intermediate tables (Figure 17 ablation). Candidate
  /// completion still evaluates final programs.
  bool UsePartialEval = true;
  /// Orders the worklist by the 2-gram model (Section 8); when false,
  /// plain program size is used (ablation).
  bool UseNGram = true;
  /// Upper bound on the number of table transformers in a program.
  unsigned MaxComponents = 5;
  /// Lower bound on the size of programs whose sketches are completed.
  /// Hypotheses smaller than this are still refined (the worklist must
  /// pass through them) but never expanded into sketches. Used by the
  /// portfolio (Section 8) to dedicate one engine to each size class;
  /// 0 keeps the classic behaviour of attempting every size.
  unsigned MinComponents = 0;
  /// Wall-clock budget, measured from the start of the synthesize call.
  std::chrono::milliseconds Timeout{5000};
  /// Optional absolute deadline. When set, the search stops (reported as a
  /// timeout) at the earlier of `start + Timeout` and this point — the
  /// service layer uses it so a job dequeued late still honours the
  /// caller's submit-relative deadline instead of restarting its budget.
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  /// Compare candidate output to the expected table including row order
  /// (set for tasks whose ground truth ends in `arrange`).
  bool OrderedCompare = false;
  /// Budget per sketch: candidate checks + partial fills before the
  /// completion engine abandons the sketch and lets the worklist advance.
  /// Bounds the damage of sketches whose (imprecise) specs survive
  /// deduction but whose completion space is enormous; 0 disables. A
  /// completion skipped as a repeat (ReusedCompletions) is charged the
  /// work its first pass consumed, so the cut does not move.
  uint64_t MaxWorkPerSketch = 100000;
  /// External cancellation (Section 8 portfolio, Engine::solve): the search
  /// polls the token and aborts — reported as a timeout — once a stop is
  /// requested. The default-constructed token is inert (never cancels); the
  /// token shares ownership of its flag, so there is no lifetime to manage.
  CancellationToken Cancel;
  /// Optional synthesis event bus (bus/EventBus.h). When set, the search
  /// publishes typed events (sketch generated / refuted, one hole-fill
  /// batch per completed sketch, a per-run stats snapshot) for
  /// off-hot-path subscribers; deduction publishes nothing. Null — the
  /// default — keeps the hot path byte-identical to a bus-free build: not
  /// a single branch beyond one pointer test per publish site. Excluded
  /// from the service problem fingerprint: observability never changes
  /// which problems are solvable or which program is found.
  std::shared_ptr<EventBus> Bus;
};

/// Counters reported by the evaluation harness.
struct SynthesisStats {
  uint64_t HypothesesExplored = 0;
  uint64_t SketchesGenerated = 0;
  uint64_t SketchesRefuted = 0;
  uint64_t PartialFillsPruned = 0;   ///< node fills rejected before the
                                     ///< sketch was fully completed
  uint64_t PartialFillsTried = 0;
  uint64_t CandidatesChecked = 0;    ///< complete programs run against E
  /// Node completions whose table was already explored under the same
  /// sketch prefix, so the rest of their completion was skipped.
  uint64_t ReusedCompletions = 0;
  DeduceStats Deduce;
  /// Total engine seconds. Under `+=` this SUMS — across N portfolio
  /// members it reads as up to N× real time (CPU-seconds, not a clock).
  double ElapsedSeconds = 0;
  /// Wall-clock seconds. Under `+=` this takes the MAX, so aggregating
  /// concurrent runs keeps a human-meaningful duration; for a single run
  /// it equals ElapsedSeconds. Report both: they answer different
  /// questions (compute spent vs. time waited).
  double WallSeconds = 0;
  bool TimedOut = false;

  /// Merges counters across runs (portfolio members, suite aggregation).
  SynthesisStats &operator+=(const SynthesisStats &O) {
    HypothesesExplored += O.HypothesesExplored;
    SketchesGenerated += O.SketchesGenerated;
    SketchesRefuted += O.SketchesRefuted;
    PartialFillsPruned += O.PartialFillsPruned;
    PartialFillsTried += O.PartialFillsTried;
    CandidatesChecked += O.CandidatesChecked;
    ReusedCompletions += O.ReusedCompletions;
    Deduce += O.Deduce;
    ElapsedSeconds += O.ElapsedSeconds;
    WallSeconds = std::max(WallSeconds, O.WallSeconds);
    TimedOut |= O.TimedOut;
    return *this;
  }
};

/// Result of SYNTHESIZE: the program (null on failure/timeout) and stats.
struct SynthesisResult {
  HypPtr Program;
  SynthesisStats Stats;

  explicit operator bool() const { return Program != nullptr; }
};

/// One synthesis engine instance. Not thread-safe; create one per thread.
class Synthesizer {
public:
  Synthesizer(ComponentLibrary Lib, SynthesisConfig Cfg);

  /// Algorithm 1: returns a complete program p with p(Inputs) == Output,
  /// or a null program when the bounded search space is exhausted or the
  /// timeout expires.
  SynthesisResult synthesize(const std::vector<Table> &Inputs,
                             const Table &Output);

  /// As above over a prebuilt (shared) ExampleContext: portfolio members
  /// and service workers pass one context so α(Ti)/α(Tout) and the base
  /// sets are computed once per example instead of once per engine.
  SynthesisResult synthesize(std::shared_ptr<const ExampleContext> Ex);

  const SynthesisConfig &config() const { return Cfg; }

private:
  ComponentLibrary Lib;
  SynthesisConfig Cfg;
};

} // namespace morpheus

#endif // MORPHEUS_SYNTH_SYNTHESIZER_H
