//===- api/Engine.cpp - Public synthesis facade -------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"

#include "interp/Components.h"
#include "service/SynthService.h"

#include <algorithm>

using namespace morpheus;

std::string_view morpheus::strategyName(Strategy S) {
  switch (S) {
  case Strategy::Sequential:
    return "sequential";
  case Strategy::Portfolio:
    return "portfolio";
  }
  return "?";
}

std::string_view morpheus::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Solved:
    return "solved";
  case Outcome::Timeout:
    return "timeout";
  case Outcome::Cancelled:
    return "cancelled";
  case Outcome::Exhausted:
    return "exhausted";
  }
  return "?";
}

Problem Problem::fromTables(std::vector<Table> Inputs, Table Output,
                            bool OrderedCompare) {
  Problem P;
  P.Inputs = std::move(Inputs);
  P.Output = std::move(Output);
  P.OrderedCompare = OrderedCompare;
  return P;
}

std::vector<std::string> Problem::inputNames() const {
  std::vector<std::string> Names;
  Names.reserve(Inputs.size());
  for (size_t I = 0; I != Inputs.size(); ++I) {
    if (I < InputNames.size() && !InputNames[I].empty())
      Names.push_back(InputNames[I]);
    else
      Names.push_back("x" + std::to_string(I));
  }
  return Names;
}

Engine::Engine(ComponentLibrary Lib, EngineOptions Opts)
    : Lib(std::move(Lib)), Opts(std::move(Opts)) {}

Engine Engine::standard(EngineOptions Opts) {
  return Engine(StandardComponents::get().tidyDplyr(), std::move(Opts));
}

Engine Engine::sql(EngineOptions Opts) {
  return Engine(StandardComponents::get().sqlRelevant(), std::move(Opts));
}

Solution Engine::solve(const Problem &P) const {
  return solve(P, CancellationToken());
}

Solution Engine::solve(const Problem &P, CancellationToken Cancel) const {
  return solve(P, std::move(Cancel), std::nullopt);
}

Solution
Engine::solve(const Problem &P, CancellationToken Cancel,
              std::optional<std::chrono::steady_clock::time_point> Deadline)
    const {
  return solve(P, std::move(Cancel), Deadline, nullptr);
}

Solution
Engine::solve(const Problem &P, CancellationToken Cancel,
              std::optional<std::chrono::steady_clock::time_point> Deadline,
              std::shared_ptr<RefutationStore> Refutations) const {
  SynthesisConfig Cfg = Opts.config();
  if (Deadline && (!Cfg.Deadline || *Deadline < *Cfg.Deadline))
    Cfg.Deadline = Deadline;
  if (Refutations)
    Cfg.Refutations = std::move(Refutations);
  Cfg.OrderedCompare = P.OrderedCompare;
  // Honour a token the caller embedded in the raw config (the
  // EngineOptions::config escape hatch) alongside the solve-call token:
  // the search stops when either requests it.
  CancellationToken Effective = Cancel.observing(Cfg.Cancel);

  Solution Out;
  if (Opts.strategy() == Strategy::Portfolio) {
    PortfolioSynthesizer Par(Lib, PortfolioSynthesizer::sizeClassVariants(Cfg),
                             Opts.threads());
    PortfolioResult R = Par.synthesize(P.Inputs, P.Output, Effective);
    Out.Program = R.Program;
    Out.Stats = R.Stats;
    Out.Seconds = R.ElapsedSeconds;
    Out.Workers = std::move(R.Workers);
    Out.WinnerIndex = R.WinnerIndex;
  } else {
    Cfg.Cancel = Effective;
    Synthesizer Seq(Lib, Cfg);
    SynthesisResult R = Seq.synthesize(P.Inputs, P.Output);
    Out.Program = R.Program;
    Out.Stats = R.Stats;
    Out.Seconds = R.Stats.ElapsedSeconds;
  }

  if (Out.Program)
    Out.Result = Outcome::Solved;
  else if (Effective.stopRequested())
    Out.Result = Outcome::Cancelled;
  else if (Out.Stats.TimedOut)
    Out.Result = Outcome::Timeout;
  else
    Out.Result = Outcome::Exhausted;

  return Out;
}

std::vector<Solution> Engine::solveBatch(const std::vector<Problem> &Problems,
                                         unsigned Workers) const {
  // A transient service: the pool gives concurrency, the fingerprint layer
  // collapses duplicate problems to one solve each. The queue is sized to
  // the batch so submission never blocks.
  SynthService Svc(*this,
                   ServiceOptions().workers(Workers).queueCapacity(
                       std::max<size_t>(Problems.size(), 1)));
  std::vector<JobHandle> Handles;
  Handles.reserve(Problems.size());
  for (const Problem &P : Problems)
    Handles.push_back(Svc.submit(P));

  std::vector<Solution> Out;
  Out.reserve(Handles.size());
  for (const JobHandle &H : Handles)
    Out.push_back(H.get());
  return Out;
}

SynthService &Engine::shared() {
  // Leaked on purpose: joining worker threads from a static destructor at
  // process exit is a classic shutdown hazard, and the service is meant to
  // live for the whole process anyway.
  static SynthService *Shared = new SynthService(Engine::standard());
  return *Shared;
}
