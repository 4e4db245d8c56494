//===- smt/Deduce.h - SMT-based deduction (Algorithm 2) ---------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DEDUCE procedure of Section 6. Given a hypothesis and the
/// input-output example, it builds the formula
///
///   ψ = Φ(H) ∧ ϕin ∧ ϕout ∧ ⋀ α(Ti)[xi/x] ∧ α(Tout)[y/x]
///
/// (Algorithm 2) over per-node attribute variables and checks its
/// satisfiability with Z3 under the theory of Linear Integer Arithmetic.
/// UNSAT proves that no completion of the hypothesis can match the example,
/// so the hypothesis is pruned. Deduction is sound but incomplete: specs
/// overapproximate, so SAT does not imply a completion exists.
///
/// Partial evaluation (Figure 7) strengthens ψ: any subtree that is already
/// a complete program is evaluated, and the abstraction of its concrete
/// result is conjoined (first case of Figure 12) — this is what rejects the
/// partially filled sketch of Example 12 without filling the remaining
/// holes.
///
/// The engine is a thin layer over the two-tier deduction substrate:
///  - tier 1, compiled spec templates (smt/SpecCompiler.h): each
///    component's SpecFormula is encoded to Z3 once per core and
///    instantiated by substitution. A core — the Z3 context, the
///    persistent solver and the template compiler — depends on no
///    example, so engines lease one from a process-wide pool at
///    construction and hand it back, at base scope, when destroyed;
///  - tier 2, warm guarded instances: the core's base scope is not
///    empty. It holds, per tree position (named by the path from the
///    root), the node's attribute variables with their domain axioms,
///    and per (position, component, spec level) the spec instance behind
///    a guard literal. They depend on no example and stay in the core
///    across solves. Each engine pushes one example scope above them
///    (α(Tout) on the root, and each leaf position's input and hole
///    bindings behind literals of their own), and deduce(H) asserts only
///    partial evaluation's concrete abstractions, then checks under H's
///    literals (Eén & Sörensson's incremental interface). A literal not
///    assumed is free, so each query is exactly Algorithm 2's ψ for H.
///
/// Above both tiers, the engine's verdict cache answers a repeated query
/// within one solve without a solver call.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SMT_DEDUCE_H
#define MORPHEUS_SMT_DEDUCE_H

#include "lang/Hypothesis.h"
#include "spec/Abstraction.h"

#include <cstdint>
#include <memory>

namespace morpheus {

/// Aggregate counters the evaluation harness reports (Section 9 discusses
/// deduction time and prune rates).
struct DeduceStats {
  uint64_t Calls = 0;            ///< deduce() entries
  uint64_t Rejections = 0;       ///< verdicts that refuted the hypothesis
  /// Concrete rejections before any Z3 call: the interval fast path
  /// refuted a node, or a complete subtree failed to evaluate.
  uint64_t FastPathRejections = 0;
  uint64_t CacheHits = 0;        ///< per-engine verdict-cache hits
  uint64_t SolverChecks = 0;     ///< actual Z3 check() invocations
  /// Spec formulas compiled to templates by this engine; about 0 on a
  /// core an earlier engine already warmed.
  uint64_t TemplateCompiles = 0;
  uint64_t TemplateHits = 0;     ///< template instantiations from cache
  /// Example scopes pushed: one per engine, plus one reopening after
  /// each base visit. Depends on how warm the leased core was.
  uint64_t SessionBuilds = 0;
  /// Solver calls that found their instances in the core and the example
  /// scope open.
  uint64_t SessionHits = 0;
  /// Always 0: kept only because perfbench reads it as `smt.store_hits`;
  /// ROADMAP item 1's [benchmark] PR drops the metric and this field.
  uint64_t StoreHits = 0;
  uint64_t SolverPushes = 0;     ///< Z3 push() calls (example + query scopes)
  uint64_t SolverPops = 0;       ///< Z3 pop() calls
  /// All of deduce(), every phase below included (perfbench reads it as
  /// `smt.z3_s`, though most of it is not Z3).
  double SolverSeconds = 0;
  /// signature(): partial evaluation of complete subtrees plus the
  /// abstraction keys of their tables.
  double SignatureSeconds = 0;
  /// Base visits (the example scope's pop and the instances asserted at
  /// base) plus example-scope pushes and their bindings.
  double SessionSeconds = 0;
  /// The query scope and Z3 check(). Z3 internalizes an example scope's
  /// bindings at the next push or check, so that cost lands here.
  double CheckSeconds = 0;

  DeduceStats &operator+=(const DeduceStats &O) {
    Calls += O.Calls;
    Rejections += O.Rejections;
    FastPathRejections += O.FastPathRejections;
    CacheHits += O.CacheHits;
    SolverChecks += O.SolverChecks;
    TemplateCompiles += O.TemplateCompiles;
    TemplateHits += O.TemplateHits;
    SessionBuilds += O.SessionBuilds;
    SessionHits += O.SessionHits;
    StoreHits += O.StoreHits;
    SolverPushes += O.SolverPushes;
    SolverPops += O.SolverPops;
    SolverSeconds += O.SolverSeconds;
    SignatureSeconds += O.SignatureSeconds;
    SessionSeconds += O.SessionSeconds;
    CheckSeconds += O.CheckSeconds;
    return *this;
  }
};

/// SMT-based deduction engine. Not thread-safe; use one engine per search
/// thread. The Z3 core it leases is its alone until it is destroyed, after
/// which any thread's next engine may lease it. The ExampleContext it is
/// built on IS shared across engines.
class DeductionEngine {
public:
  /// Preferred constructor: \p Ex carries the example and its precomputed
  /// abstractions, shared across every engine solving the same example.
  explicit DeductionEngine(std::shared_ptr<const ExampleContext> Ex);
  /// Convenience: builds a private ExampleContext from the raw example.
  DeductionEngine(const std::vector<Table> &Inputs, const Table &Output);
  ~DeductionEngine();

  DeductionEngine(const DeductionEngine &) = delete;
  DeductionEngine &operator=(const DeductionEngine &) = delete;

  /// Algorithm 2. Returns false iff H provably cannot be unified with the
  /// example (⊥). \p UsePartialEval controls whether complete subtrees are
  /// evaluated and their abstractions conjoined.
  ///
  /// If partial evaluation discovers that a complete subtree fails to
  /// evaluate (a component rejects its arguments), the hypothesis is dead
  /// and false is returned as well.
  bool deduce(const HypPtr &H, SpecLevel Level, bool UsePartialEval);

  /// Memoized partial evaluation of a (sub)hypothesis against the example
  /// inputs. The cache is keyed on node identity — sound because trees are
  /// immutable and shared — and also serves the sketch-completion engine's
  /// candidate-universe computation.
  const std::optional<Table> &evaluateCached(const HypPtr &H);

  /// Hands the engine the search's table components. The first time a
  /// tree position lacks a component's instance at some spec level, the
  /// instances of all of them are asserted there at once, so the core is
  /// rarely revisited at base scope (each visit pops and replays the
  /// example scope). Without a library, only the missing instance is
  /// asserted.
  void setLibrary(std::vector<const TableTransformer *> Components);

  /// Drops the evaluation cache (called between sketches to bound memory).
  void clearEvalCache();

  const std::shared_ptr<const ExampleContext> &exampleContext() const;

  const DeduceStats &stats() const { return Stats; }

private:
  struct Impl;
  std::unique_ptr<Impl> P;
  DeduceStats Stats;
};

} // namespace morpheus

#endif // MORPHEUS_SMT_DEDUCE_H
