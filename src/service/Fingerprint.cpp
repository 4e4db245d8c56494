//===- service/Fingerprint.cpp - Canonical problem fingerprint ----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Fingerprint.h"

#include "table/Hash.h"

using namespace morpheus;
using hashing::fold;

namespace {

/// Row-order-sensitive fold of every cell, row-major. Only computed for
/// OrderedCompare outputs, where row order is part of the problem.
uint64_t orderedRowsHash(const Table &T) {
  uint64_t H = 0x6f7264657265640aULL;
  for (size_t R = 0; R != T.numRows(); ++R)
    for (size_t C = 0; C != T.numCols(); ++C)
      H = fold(H, uint64_t(T.at(R, C).hash()));
  return H;
}

} // namespace

uint64_t morpheus::problemFingerprint(const Problem &P,
                                      const EngineOptions &Opts) {
  uint64_t H = 0x4d6f727068657573ULL; // "Morpheus"

  H = fold(H, uint64_t(P.Inputs.size()));
  for (const Table &In : P.Inputs) {
    H = fold(H, In.fingerprint());
    // Under ordered comparison, *input* row order is observable too:
    // order-preserving verbs (filter/select/mutate) propagate it into the
    // compared output, so a row-permuted input is a different problem.
    if (P.OrderedCompare)
      H = fold(H, orderedRowsHash(In));
  }
  H = fold(H, P.Output.fingerprint());
  H = fold(H, P.OrderedCompare ? 0x4f52ULL : 0x554eULL);
  if (P.OrderedCompare)
    H = fold(H, orderedRowsHash(P.Output));

  const SynthesisConfig &Cfg = Opts.config();
  // The thread count is deliberately excluded: it changes how fast a
  // verdict is reached, never which verdict, so a solve on any pool size
  // answers the same problem.
  uint64_t Knobs = uint64_t(Opts.strategy() == Strategy::Portfolio) |
                   uint64_t(Cfg.Level == SpecLevel::Spec2) << 1 |
                   uint64_t(Cfg.UseDeduction) << 2 |
                   uint64_t(Cfg.UsePartialEval) << 3 |
                   uint64_t(Cfg.UseNGram) << 4;
  H = fold(H, Knobs);
  H = fold(H, uint64_t(Cfg.MaxComponents) << 32 | uint64_t(Cfg.MinComponents));
  H = fold(H, uint64_t(Cfg.Timeout.count()));
  H = fold(H, Cfg.MaxWorkPerSketch);
  return H;
}
