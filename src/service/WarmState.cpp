//===- service/WarmState.cpp - Durable warm state for the service -------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/WarmState.h"

#include "io/ProgramIO.h"
#include "io/RecordLog.h"
#include "lang/Component.h"
#include "synth/Synthesizer.h"
#include "table/Hash.h"

#include <cstdio>

using namespace morpheus;

//===----------------------------------------------------------------------===//
// Compat key
//===----------------------------------------------------------------------===//

uint64_t morpheus::warmStateCompatKey(const ComponentLibrary &Lib,
                                      const SynthesisConfig &Cfg) {
  using hashing::fold;
  using hashing::hashString;

  // Seed distinct from every other key family (see table/Hash.h users).
  uint64_t H = 0x5761726d53743035ULL; // "WarmSt05"

  // The component library: a change to any name, signature or spec
  // formula — at either level, whichever is configured — can change a
  // DEDUCE verdict or a program's meaning, so all of it keys.
  H = fold(H, Lib.TableTransformers.size());
  for (const TableTransformer *T : Lib.TableTransformers) {
    H = fold(H, hashString(T->name()));
    H = fold(H, T->numTableArgs());
    for (ParamKind K : T->valueParams())
      H = fold(H, uint64_t(K) + 1);
    H = fold(H, hashString(T->spec(SpecLevel::Spec1).toString()));
    H = fold(H, hashString(T->spec(SpecLevel::Spec2).toString()));
  }
  H = fold(H, Lib.ValueTransformers.size());
  for (const ValueTransformer *V : Lib.ValueTransformers) {
    H = fold(H, hashString(V->name()));
    H = fold(H, V->arity());
    H = fold(H, V->isAggregate());
  }

  // Engine semantics knobs. Budget knobs (timeout, threads, component
  // bounds) stay OUT: they bound exploration, never flip a verdict, and
  // ResultCache entries already self-key by the full problem fingerprint
  // (which includes the timeout).
  H = fold(H, uint64_t(Cfg.Level));
  H = fold(H, Cfg.UseDeduction ? 1 : 2);
  H = fold(H, Cfg.UsePartialEval ? 1 : 2);
  return H;
}

//===----------------------------------------------------------------------===//
// Record payloads
//===----------------------------------------------------------------------===//

namespace {

void encodeResult(ByteWriter &W, uint64_t Fp, const Solution &S) {
  W.putU64(Fp);
  W.putU32(uint32_t(S.Result));
  W.putF64(S.Seconds);
  W.putStr(S.Program ? printSexp(S.Program) : std::string_view());
  const SynthesisStats &St = S.Stats;
  W.putU64(St.HypothesesExplored);
  W.putU64(St.SketchesGenerated);
  W.putU64(St.SketchesRefuted);
  W.putU64(St.PartialFillsPruned);
  W.putU64(St.PartialFillsTried);
  W.putU64(St.CandidatesChecked);
  W.putU64(St.ReusedCompletions);
  W.putF64(St.ElapsedSeconds);
  W.putF64(St.WallSeconds);
  W.putU32(St.TimedOut ? 1 : 0);
  const DeduceStats &D = St.Deduce;
  W.putU64(D.Calls);
  W.putU64(D.Rejections);
  W.putU64(D.FastPathRejections);
  W.putU64(D.CacheHits);
  W.putU64(D.SolverChecks);
  W.putU64(D.TemplateCompiles);
  W.putU64(D.SessionBuilds);
  W.putU64(D.SessionHits);
  W.putU64(D.SolverPushes);
  W.putU64(D.SolverPops);
  W.putF64(D.SolverSeconds);
  W.putF64(D.SignatureSeconds);
  W.putF64(D.SessionSeconds);
  W.putF64(D.CheckSeconds);
}

bool decodeResult(std::string_view Payload, const ComponentLibrary &Lib,
                  uint64_t &Fp, Solution &S) {
  ByteReader R(Payload);
  uint32_t Outcome32, TimedOut32;
  std::string Sexp;
  if (!R.getU64(Fp) || !R.getU32(Outcome32) || !R.getF64(S.Seconds) ||
      !R.getStr(Sexp))
    return false;
  if (Outcome32 > uint32_t(Outcome::Exhausted))
    return false;
  S.Result = Outcome(Outcome32);
  if (!Sexp.empty()) {
    S.Program = parseSexp(Sexp, Lib);
    if (!S.Program)
      return false; // the live library no longer speaks this program
  } else if (S.Result == Outcome::Solved) {
    return false; // Solved with no program is self-contradictory
  }
  SynthesisStats &St = S.Stats;
  if (!R.getU64(St.HypothesesExplored) || !R.getU64(St.SketchesGenerated) ||
      !R.getU64(St.SketchesRefuted) || !R.getU64(St.PartialFillsPruned) ||
      !R.getU64(St.PartialFillsTried) || !R.getU64(St.CandidatesChecked) ||
      !R.getU64(St.ReusedCompletions) || !R.getF64(St.ElapsedSeconds) ||
      !R.getF64(St.WallSeconds) || !R.getU32(TimedOut32))
    return false;
  St.TimedOut = TimedOut32 != 0;
  DeduceStats &D = St.Deduce;
  if (!R.getU64(D.Calls) || !R.getU64(D.Rejections) ||
      !R.getU64(D.FastPathRejections) || !R.getU64(D.CacheHits) ||
      !R.getU64(D.SolverChecks) || !R.getU64(D.TemplateCompiles) ||
      !R.getU64(D.SessionBuilds) || !R.getU64(D.SessionHits) ||
      !R.getU64(D.SolverPushes) || !R.getU64(D.SolverPops) ||
      !R.getF64(D.SolverSeconds) || !R.getF64(D.SignatureSeconds) ||
      !R.getF64(D.SessionSeconds) || !R.getF64(D.CheckSeconds))
    return false;
  return R.atEnd();
}

} // namespace

//===----------------------------------------------------------------------===//
// WarmState
//===----------------------------------------------------------------------===//

WarmState::WarmState(std::string Dir, uint64_t CompatKey)
    : Dir(std::move(Dir)), CompatKey(CompatKey) {}

void WarmState::loadResults(ResultCache &Cache, const ComponentLibrary &Lib) {
  RecordReader R;
  RecordLogStatus St = R.open(resultsPath(), CompatKey);
  if (St != RecordLogStatus::Ok) {
    if (St != RecordLogStatus::Missing) {
      MutexLock Lock(M);
      ++Counters.FilesRejected;
    }
    return;
  }
  uint64_t Loaded = 0, Dropped = 0;
  std::string Payload;
  while (R.next(Payload)) {
    uint64_t Fp;
    Solution S;
    if (!decodeResult(Payload, Lib, Fp, S)) {
      ++Dropped;
      continue;
    }
    Cache.restore(Fp, std::move(S));
    ++Loaded;
  }
  MutexLock Lock(M);
  Counters.ResultsLoaded += Loaded;
  Counters.ResultsDropped += Dropped;
  if (R.tornTail())
    ++Counters.TornTails;
}

bool WarmState::checkpoint(
    const std::vector<std::pair<uint64_t, Solution>> &Results) {
  RecordWriter W;
  std::string Tmp = resultsPath() + ".tmp";
  bool Ok = W.open(Tmp, CompatKey);
  uint64_t Written = 0;
  if (Ok) {
    for (const auto &Entry : Results) {
      ByteWriter B;
      encodeResult(B, Entry.first, Entry.second);
      if (!W.append(B.bytes()))
        break;
    }
    Written = W.bytesWritten();
    Ok = W.close() && publishFile(Tmp, resultsPath());
  }
  if (!Ok)
    std::remove(Tmp.c_str());

  MutexLock Lock(M);
  if (Ok) {
    ++Counters.Checkpoints;
    Counters.LastCheckpointBytes = Written;
  } else {
    ++Counters.CheckpointErrors;
  }
  return Ok;
}

WarmStateStats WarmState::stats() const {
  MutexLock Lock(M);
  return Counters;
}
