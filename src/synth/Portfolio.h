//===- synth/Portfolio.h - Parallel portfolio search ------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 8 parallelism: MORPHEUS "searches for solutions of
/// different sizes in parallel threads and stops as soon as any thread
/// finds one". A PortfolioSynthesizer runs one Synthesizer per
/// SynthesisConfig variant — by default one per program-size class — on a
/// pool of std::threads sharing a CancellationToken. The first member to
/// find a solution wins; the token cancels every other member mid-search
/// (SynthesisConfig::Cancel).
///
/// Members are independent engines (own Z3 context, own evaluation stack,
/// own worklist); the only shared mutable state is the cancellation token
/// and the winner index. The component library and the singleton models
/// (StandardComponents, NGramModel) are immutable after construction and
/// safe to share.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SYNTH_PORTFOLIO_H
#define MORPHEUS_SYNTH_PORTFOLIO_H

#include "synth/Synthesizer.h"

#include <string>
#include <vector>

namespace morpheus {

/// What happened to one portfolio member.
struct PortfolioWorkerResult {
  std::string Label;   ///< e.g. "size<=3"
  bool Started = false; ///< false when a winner existed before its turn
  bool Solved = false; ///< found a solution (possibly after the winner)
  SynthesisStats Stats;
};

/// Result of a portfolio run: the winning member's program, fleet-total
/// stats, and a per-member report.
struct PortfolioResult {
  HypPtr Program; ///< null when no member solved within its budget
  /// Counters and ElapsedSeconds summed over every member (compute
  /// spent, up to N× wall clock); WallSeconds is the portfolio's wall
  /// clock. Per-member rows live in Workers.
  SynthesisStats Stats;
  int WinnerIndex = -1; ///< index into Workers; -1 when unsolved
  double ElapsedSeconds = 0; ///< wall clock of the whole portfolio
  std::vector<PortfolioWorkerResult> Workers;

  explicit operator bool() const { return Program != nullptr; }
};

/// Runs a portfolio of Synthesizer instances concurrently with
/// first-solution-wins semantics.
class PortfolioSynthesizer {
public:
  /// \p MaxThreads bounds pool size; 0 means hardware concurrency. Pool
  /// threads pull variants from a shared queue, so more variants than
  /// threads is fine — stragglers are skipped once a winner exists.
  PortfolioSynthesizer(ComponentLibrary Lib,
                       std::vector<SynthesisConfig> Variants,
                       unsigned MaxThreads = 0);

  /// The paper's default portfolio: one variant per program-size class
  /// k = 1..Base.MaxComponents, each searching only programs of exactly
  /// that size (MinComponents = MaxComponents = k, except class 1 which
  /// also covers size-0 programs). Timeout and all other knobs are
  /// inherited from \p Base.
  static std::vector<SynthesisConfig> sizeClassVariants(SynthesisConfig Base);

  /// Runs every variant concurrently; returns the first solution found
  /// (and cancels the rest), or a null program when every member exhausted
  /// its budget. \p Cancel aborts the whole portfolio from outside: every
  /// member runs on a token linked to it, so a stop requested by the caller
  /// reaches all members while the winner's internal stop never propagates
  /// back to the caller's token.
  PortfolioResult synthesize(const std::vector<Table> &Inputs,
                             const Table &Output,
                             CancellationToken Cancel = {});

  size_t numVariants() const { return Variants.size(); }
  const std::vector<SynthesisConfig> &variants() const { return Variants; }

private:
  ComponentLibrary Lib;
  std::vector<SynthesisConfig> Variants;
  unsigned MaxThreads;
};

} // namespace morpheus

#endif // MORPHEUS_SYNTH_PORTFOLIO_H
