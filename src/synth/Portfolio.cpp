//===- synth/Portfolio.cpp - Parallel portfolio search ------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Portfolio.h"

#include <algorithm>
#include <thread>

using namespace morpheus;

PortfolioSynthesizer::PortfolioSynthesizer(ComponentLibrary Lib,
                                           std::vector<SynthesisConfig> Variants,
                                           unsigned MaxThreads)
    : Lib(std::move(Lib)), Variants(std::move(Variants)),
      MaxThreads(MaxThreads) {
  if (this->MaxThreads == 0) {
    // Floor of 2: even on a single-core machine the portfolio must
    // interleave members, or an early size class could burn its whole
    // timeout while the class owning the solution never starts.
    unsigned HW = std::thread::hardware_concurrency();
    this->MaxThreads = HW > 2 ? HW : 2;
  }
}

std::vector<SynthesisConfig>
PortfolioSynthesizer::sizeClassVariants(SynthesisConfig Base) {
  std::vector<SynthesisConfig> Out;
  for (unsigned K = 1; K <= Base.MaxComponents; ++K) {
    SynthesisConfig Cfg = Base;
    Cfg.MaxComponents = K;
    // Class 1 also owns the size-0 programs (an input table verbatim).
    Cfg.MinComponents = K == 1 ? 0 : K;
    Out.push_back(Cfg);
  }
  if (Out.empty()) // MaxComponents == 0: degenerate single-member portfolio
    Out.push_back(Base);
  return Out;
}

PortfolioResult
PortfolioSynthesizer::synthesize(const std::vector<Table> &Inputs,
                                 const Table &Output,
                                 CancellationToken Cancel) {
  auto Start = std::chrono::steady_clock::now();

  // One example context for every member: α(Ti)/α(Tout) and the base sets
  // are computed once here instead of once per size class. Refutations
  // are not shared: member K deduces only size-K sketches, so a sibling's
  // refutation never answers its queries.
  std::shared_ptr<const ExampleContext> Ex =
      ExampleContext::make(Inputs, Output);

  // The portfolio's wall clock never exceeds the largest member budget:
  // with fewer pool threads than members, later members would otherwise
  // cascade past it, so each member's timeout is clamped to the global
  // remainder.
  std::chrono::milliseconds MaxTimeout{0};
  for (const SynthesisConfig &V : Variants)
    MaxTimeout = std::max(
        MaxTimeout,
        std::chrono::duration_cast<std::chrono::milliseconds>(V.Timeout));
  auto GlobalDeadline = Start + MaxTimeout;
  // An absolute deadline in any variant bounds the whole portfolio too
  // (members already honour their own Cfg.Deadline inside the search).
  for (const SynthesisConfig &V : Variants)
    if (V.Deadline && *V.Deadline < GlobalDeadline)
      GlobalDeadline = *V.Deadline;

  // Fresh stop flag per run, linked to the caller's token: the winner
  // cancels its siblings without marking the caller's token as stopped.
  CancellationToken Stop = Cancel.makeLinked();
  std::atomic<int> Winner{-1};
  std::atomic<size_t> NextVariant{0};
  std::atomic<bool> DeadlineSkipped{false};
  std::vector<SynthesisResult> Results(Variants.size());
  std::vector<char> Started(Variants.size(), 0);

  auto WorkerLoop = [&]() {
    for (size_t I = NextVariant.fetch_add(1, std::memory_order_relaxed);
         I < Variants.size();
         I = NextVariant.fetch_add(1, std::memory_order_relaxed)) {
      if (Stop.stopRequested())
        break; // a winner exists (or the caller cancelled); don't start
               // stragglers
      auto Remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          GlobalDeadline - std::chrono::steady_clock::now());
      if (Remaining <= std::chrono::milliseconds::zero()) {
        // Global budget exhausted before this member's turn. The member
        // was denied time, not search space: the unsolved portfolio must
        // report a timeout, never a (cacheable) "space exhausted".
        DeadlineSkipped.store(true, std::memory_order_relaxed);
        break;
      }
      Started[I] = 1;
      SynthesisConfig Cfg = Variants[I];
      Cfg.Cancel = Stop;
      Cfg.Timeout = std::min(
          std::chrono::duration_cast<std::chrono::milliseconds>(Cfg.Timeout),
          Remaining);
      Synthesizer S(Lib, Cfg);
      SynthesisResult R = S.synthesize(Ex);
      if (R.Program) {
        // First solution wins; later finishers keep their report but the
        // portfolio returns the winner's program.
        int Expected = -1;
        if (Winner.compare_exchange_strong(Expected, int(I),
                                           std::memory_order_acq_rel))
          Stop.requestStop();
      }
      Results[I] = std::move(R);
    }
  };

  size_t PoolSize = std::min<size_t>(MaxThreads, Variants.size());
  std::vector<std::thread> Pool;
  Pool.reserve(PoolSize);
  for (size_t T = 0; T != PoolSize; ++T)
    Pool.emplace_back(WorkerLoop);
  for (std::thread &T : Pool)
    T.join();

  PortfolioResult Out;
  Out.WinnerIndex = Winner.load();
  Out.ElapsedSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  Out.Workers.reserve(Variants.size());
  for (size_t I = 0; I != Variants.size(); ++I) {
    PortfolioWorkerResult W;
    W.Label = "size<=" + std::to_string(Variants[I].MaxComponents);
    if (Variants[I].MinComponents == Variants[I].MaxComponents)
      W.Label = "size==" + std::to_string(Variants[I].MaxComponents);
    W.Started = Started[I] != 0;
    W.Solved = bool(Results[I]);
    W.Stats = Results[I].Stats;
    Out.Workers.push_back(std::move(W));
  }
  // Out.Stats is the FLEET total, solved or not: counters and
  // ElapsedSeconds sum over every member (losing siblings burn real
  // solver time — up to N× wall clock, which is the point: it is compute
  // spent, not a clock), so suite-level consumers see uniform semantics.
  // The winner's own row stays inspectable in Workers.
  for (const SynthesisResult &R : Results)
    Out.Stats += R.Stats;
  if (Out.WinnerIndex >= 0) {
    Out.Program = Results[size_t(Out.WinnerIndex)].Program;
    // Losing members report their cancellation as a timeout; the flag on
    // the aggregate describes the portfolio's outcome, not member fates.
    Out.Stats.TimedOut = false;
  }
  // The clock consumers can trust regardless of outcome or member count.
  Out.Stats.WallSeconds = Out.ElapsedSeconds;
  if (!Out.Program && DeadlineSkipped.load(std::memory_order_relaxed))
    Out.Stats.TimedOut = true;
  return Out;
}
