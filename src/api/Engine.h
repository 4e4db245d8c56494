//===- api/Engine.h - Public synthesis facade -------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library. A data scientist (or the
/// `morpheus` CLI, or a service front-end) describes a Problem — input
/// tables plus the desired output table — and an Engine solves it, hiding
/// the choice between the sequential Algorithm 1 search and the Section 8
/// parallel portfolio behind one call:
///
///   Engine E = Engine::standard(EngineOptions()
///                                   .strategy(Strategy::Portfolio)
///                                   .timeout(std::chrono::seconds(30)));
///   Solution S = E.solve(Problem::fromTables({In}, Out));
///   if (S) std::cout << emitRProgram(S.Program, S.inputNames());
///
/// Everything below this header (Synthesizer, PortfolioSynthesizer, the
/// suite runner) is implementation; new call sites should come in through
/// Engine. Serialization of Problems and programs lives in src/io.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_API_ENGINE_H
#define MORPHEUS_API_ENGINE_H

#include "api/CancellationToken.h"
#include "synth/Portfolio.h"
#include "synth/Synthesizer.h"

#include <string>
#include <vector>

namespace morpheus {

class SynthService; // src/service/SynthService.h

/// How Engine::solve searches.
enum class Strategy {
  Sequential, ///< one Synthesizer, single cost-ordered worklist
  Portfolio   ///< Section 8: one engine per program-size class on a pool
};

/// Printable name ("sequential" / "portfolio") of \p S.
std::string_view strategyName(Strategy S);

/// Why a solve call returned.
enum class Outcome {
  Solved,    ///< Solution.Program satisfies the example
  Timeout,   ///< the wall-clock budget expired first
  Cancelled, ///< the caller's CancellationToken stopped the search
  Exhausted  ///< the bounded search space was emptied without a solution
};

/// Printable name ("solved" / "timeout" / ...) of \p O.
std::string_view outcomeName(Outcome O);

/// One programming-by-example problem: input tables, the expected output,
/// and how outputs are compared. This is the in-memory form of the JSON
/// task format read and written by src/io/ProblemIO.
struct Problem {
  std::string Name;        ///< identifier, e.g. the task file stem
  std::string Description; ///< one-line English description (optional)
  std::vector<Table> Inputs;
  /// Display names for the inputs in emitted programs; when shorter than
  /// Inputs, missing entries default to x0, x1, ... (see inputNames()).
  std::vector<std::string> InputNames;
  Table Output;
  /// Compare candidate outputs to Output including row order (set when the
  /// intended program ends in `arrange`).
  bool OrderedCompare = false;

  /// Convenience constructor for the common inline-tables case.
  static Problem fromTables(std::vector<Table> Inputs, Table Output,
                            bool OrderedCompare = false);

  /// One display name per input: InputNames[i] when present and non-empty,
  /// otherwise "x<i>".
  std::vector<std::string> inputNames() const;
};

/// Fluent configuration of an Engine: the synthesis knobs of
/// SynthesisConfig plus the search strategy and thread budget. Setters
/// return *this so options chain; getters are the zero-argument overloads.
class EngineOptions {
public:
  EngineOptions() = default;

  EngineOptions &strategy(Strategy S) { Strat = S; return *this; }
  EngineOptions &threads(unsigned N) { NumThreads = N; return *this; }
  EngineOptions &timeout(std::chrono::milliseconds T) {
    Cfg.Timeout = T;
    return *this;
  }
  EngineOptions &specLevel(SpecLevel L) { Cfg.Level = L; return *this; }
  EngineOptions &deduction(bool On) { Cfg.UseDeduction = On; return *this; }
  EngineOptions &partialEval(bool On) { Cfg.UsePartialEval = On; return *this; }
  EngineOptions &ngramOrdering(bool On) { Cfg.UseNGram = On; return *this; }
  EngineOptions &maxComponents(unsigned N) {
    Cfg.MaxComponents = N;
    return *this;
  }
  /// Attaches a synthesis event bus (bus/EventBus.h): the search engines
  /// and any SynthService built over this engine publish typed events to
  /// it. Null (default) disables publishing entirely; with a bus attached
  /// but no subscriber for a kind, each publish site costs one relaxed
  /// atomic load.
  EngineOptions &eventBus(std::shared_ptr<EventBus> B) {
    Cfg.Bus = std::move(B);
    return *this;
  }
  /// Directory for durable warm state (service/WarmState.h). When set, a
  /// SynthService built over this engine restores its ResultCache from
  /// `<dir>/results.mstate` at construction and checkpoints it in the
  /// background, so a restarted process answers the problems it already
  /// solved without solving them again. The directory must exist. Empty
  /// (default) disables persistence. Deliberately NOT part of
  /// SynthesisConfig: where state lives on disk can never affect a
  /// problem's fingerprint or verdicts.
  EngineOptions &stateDir(std::string Dir) {
    StateDir = std::move(Dir);
    return *this;
  }
  /// Escape hatch: replaces the whole underlying SynthesisConfig (the
  /// strategy and thread count are kept). Lets suite code reuse the named
  /// paper configurations (configSpec2, ...) through the facade.
  EngineOptions &config(SynthesisConfig C) { Cfg = std::move(C); return *this; }

  Strategy strategy() const { return Strat; }
  /// Portfolio pool size; 0 means hardware concurrency.
  unsigned threads() const { return NumThreads; }
  const std::shared_ptr<EventBus> &eventBus() const { return Cfg.Bus; }
  const std::string &stateDir() const { return StateDir; }
  const SynthesisConfig &config() const { return Cfg; }

private:
  SynthesisConfig Cfg;
  Strategy Strat = Strategy::Sequential;
  unsigned NumThreads = 0;
  std::string StateDir;
};

/// Result of Engine::solve: the synthesized program (null unless Solved),
/// why the search returned, and the search counters.
struct Solution {
  HypPtr Program;
  Outcome Result = Outcome::Exhausted;
  SynthesisStats Stats;
  double Seconds = 0; ///< wall clock of the solve call
  /// Per-member reports when the portfolio strategy ran; empty otherwise.
  std::vector<PortfolioWorkerResult> Workers;
  /// Index into Workers of the member that produced Program; -1 when the
  /// sequential strategy ran or nothing was solved.
  int WinnerIndex = -1;

  explicit operator bool() const { return Program != nullptr; }
};

/// The facade: a component library plus options. Immutable once built and
/// safe to share across threads (each solve call creates its own search
/// state); create one Engine and solve many problems with it.
class Engine {
public:
  explicit Engine(ComponentLibrary Lib, EngineOptions Opts = {});

  /// An Engine over the paper's main tidyr/dplyr component library.
  static Engine standard(EngineOptions Opts = {});
  /// An Engine over the eight SQL-relevant components (Figure 18).
  static Engine sql(EngineOptions Opts = {});

  const EngineOptions &options() const { return Opts; }
  const ComponentLibrary &library() const { return Lib; }

  /// Solves \p P under this engine's options. Never throws on search
  /// failure: inspect Solution::Result.
  Solution solve(const Problem &P) const;

  /// As above, but the search also aborts — Outcome::Cancelled — once
  /// \p Cancel has a stop requested.
  Solution solve(const Problem &P, CancellationToken Cancel) const;

  /// As above, with an absolute deadline: the search stops (reported as a
  /// timeout) at the earlier of the configured timeout and \p Deadline.
  /// The SynthService scheduler uses this so queue wait counts against a
  /// job's submit-relative deadline.
  Solution
  solve(const Problem &P, CancellationToken Cancel,
        std::optional<std::chrono::steady_clock::time_point> Deadline) const;

  /// Solves a batch of problems through a transient SynthService over this
  /// engine: all problems are scheduled on a worker pool and identical
  /// problems (by fingerprint) are solved once. Results are returned in
  /// input order. \p Workers = 0 means hardware concurrency.
  std::vector<Solution> solveBatch(const std::vector<Problem> &Problems,
                                   unsigned Workers = 0) const;

  /// The process-wide service: a SynthService over Engine::standard() with
  /// default options, created on first use and alive for the rest of the
  /// process. The convenient entry point for callers that just want
  /// concurrent, cached solves without owning a service.
  static SynthService &shared();

private:
  ComponentLibrary Lib;
  EngineOptions Opts;
};

} // namespace morpheus

#endif // MORPHEUS_API_ENGINE_H
