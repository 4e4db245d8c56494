//===- smt/Deduce.cpp - SMT-based deduction (Algorithm 2) --------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// ψ is generated in two layers that map onto two Z3 scopes:
//
//   scope 1 ("shape"): everything determined by the sketch shape alone —
//     Φ(H) instantiated from compiled spec templates, the per-node domain
//     axioms, the input bindings α(Ti), the hole disjunction ϕin, and the
//     output binding α(Tout) on the root. Keyed on
//     (Hypothesis::shapeHash, spec level); kept pushed across deduce
//     calls and only rebuilt when the shape changes. During sketch
//     completion every partial fill shares one shape, so the whole
//     skeleton is asserted once per sketch instead of once per fill.
//
//   scope 2 ("query"): the concrete abstractions partial evaluation
//     conjoins for subtrees that are complete under the current fill,
//     plus the interval fast path. Pushed and popped per call.
//
// Node attribute variables are allocated in pre-order over table-typed
// nodes; the allocation order is itself shape-determined, so the concrete
// walk of scope 2 indexes the variables created by scope 1 positionally.
//
// Neither scope survives its engine. What does is the *core* the engine
// leased: the Z3 context, the persistent solver at base scope and the
// compiled spec templates, none of which depend on the example. Cores
// live on one process-wide free list, so a solve on any thread picks up
// a core some earlier solve warmed.
//
//===----------------------------------------------------------------------===//

#include "smt/Deduce.h"

#include "bus/EventBus.h"
#include "smt/SpecCompiler.h"
#include "support/Sync.h"
#include "table/Hash.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <z3++.h>

using namespace morpheus;
using hashing::hashString;
using hashing::mix64;

namespace {

/// The example-independent Z3 state of deduction. Building one costs
/// about 5 ms (context, solver, and ~17 template compiles for a typical
/// library), which used to be about half of an easy solve.
struct Core {
  z3::context Ctx;
  /// Persistent solver; every assertion lives in a push scope, so at
  /// base scope it is empty and any example can use it.
  z3::solver Solver{Ctx};
  SpecCompiler Compiler{Ctx};
  unsigned Leases = 0;
};

/// A core is retired after this many leases, because its context keeps
/// growing: one never-retired core solving easy suite tasks back to back
/// grew the live heap by about 1 KB per solve (5.3 -> 13.9 MB over 8,192
/// solves), while one retired after 64 or 256 leases stayed flat. 256
/// rather than 64: on the serve benchmark 64 read ~10% higher p50 latency
/// and ~2 MB higher peak RSS in 4 of 4 interleaved pairs, the cost of
/// four times as many context teardowns and rebuilds (~5 ms each).
constexpr unsigned MaxLeasesPerCore = 256;

/// The process-wide free list of idle cores. One list rather than one per
/// thread: a per-thread pool let the main thread's warm-up solve park a
/// ~17 MB core that no service worker could reach, which raised serve
/// peak RSS by 24% and cluster by 47%.
class CorePool {
public:
  /// Leaked on purpose: idle cores are never destroyed at exit, so no Z3
  /// object outlives Z3's own teardown. Still reachable, so not a leak to
  /// LeakSanitizer.
  static CorePool &get() {
    static CorePool *Pool = new CorePool;
    return *Pool;
  }

  std::unique_ptr<Core> lease() {
    std::unique_ptr<Core> C;
    {
      MutexLock Lock(M);
      if (!Idle.empty()) {
        C = std::move(Idle.back());
        Idle.pop_back();
      }
    }
    if (!C)
      C = std::make_unique<Core>();
    ++C->Leases;
    return C;
  }

  /// Takes back \p C, whose solver must be at base scope and whose
  /// context no live expr may reference.
  void giveBack(std::unique_ptr<Core> C) {
    if (C->Leases < MaxLeasesPerCore) {
      MutexLock Lock(M);
      if (Idle.size() < MaxIdle) {
        Idle.push_back(std::move(C));
        return;
      }
    }
    // Retired, or the list is full: destroyed here, outside the lock.
  }

private:
  /// At most one idle core per hardware thread: enough for every worker
  /// a service or portfolio runs at once, while capping what sits unused
  /// at ~17 MB resident per core (16.4-17.6 MB measured with 8 and 16
  /// warm cores alive at once).
  const size_t MaxIdle =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  Mutex M;
  std::vector<std::unique_ptr<Core>> Idle GUARDED_BY(M);
};

/// One engine's hold on a core, handed back when the lease is destroyed.
class CoreLease {
public:
  CoreLease() : C(CorePool::get().lease()) {}
  ~CoreLease() { CorePool::get().giveBack(std::move(C)); }

  CoreLease(const CoreLease &) = delete;
  CoreLease &operator=(const CoreLease &) = delete;

  Core *operator->() const { return C.get(); }

private:
  std::unique_ptr<Core> C;
};

} // namespace

struct DeductionEngine::Impl {
  /// Declared first so it is destroyed last: every z3::expr below must be
  /// gone before the core's context can pass to another thread.
  CoreLease Lease;
  z3::context &Ctx = Lease->Ctx;
  z3::solver &Solver = Lease->Solver;
  SpecCompiler &Compiler = Lease->Compiler;
  /// The compiler's cumulative counters when leased; stats report the
  /// difference, so they count this engine's work only.
  const uint64_t CompilesAtLease = Compiler.compilations();
  const uint64_t HitsAtLease = Compiler.hits();
  std::shared_ptr<const ExampleContext> Ex;
  std::shared_ptr<RefutationStore> Store;
  unsigned NextVar = 0;

  /// The open shape session: scope 1 holds the skeleton of SessionKey's
  /// sketch shape, and Vars are its per-node attribute variables in
  /// pre-order. Invalidated (popped and rebuilt) when a different shape
  /// arrives.
  bool SessionOpen = false;
  uint64_t SessionKey = 0;
  std::vector<NodeVars> Vars;
  size_t ConcreteIdx = 0; ///< pre-order cursor of the scope-2 walk

  /// ϕin compiled once per engine (it depends on the example): the
  /// hole-must-be-an-input disjunction over a placeholder node,
  /// instantiated per TblHole by substitution.
  z3::expr HoleTemplate;
  z3::expr_vector HoleParams;

  /// Memoized partial evaluation, keyed on node identity (trees are
  /// immutable and structurally shared, so a node pointer determines the
  /// subtree). KeepAlive pins the keys so pointers cannot be recycled.
  std::unordered_map<const Hypothesis *, std::optional<Table>> EvalCache;
  std::vector<HypPtr> KeepAlive;
  /// α results keyed on the table's 64-bit fingerprint: distinct nodes that
  /// evaluate to the same table (a very common event during sketch
  /// completion) share one α computation, and entries survive the
  /// per-sketch eval-cache clear because they carry no node identity.
  std::unordered_map<uint64_t, AttrValues> AbsCache;

  const AttrValues &absCached(const Table &T) {
    uint64_t Fp = T.fingerprint();
    auto It = AbsCache.find(Fp);
    if (It != AbsCache.end())
      return It->second;
    return AbsCache.emplace(Fp, abstractTable(T, Ex->Base)).first->second;
  }

  /// Memoized DEDUCE verdicts. The SMT query is fully determined by the
  /// tree's component structure, the input indices at its leaves and the
  /// concrete abstractions of evaluated subtrees — many candidate fills
  /// share that signature (e.g. every equal-shape filter predicate), so
  /// caching removes the bulk of Z3 calls.
  std::unordered_map<std::string, bool> VerdictCache;

  /// Builds the signature key for \p H; appends to \p Key. Returns false
  /// when a complete subtree fails to evaluate (the hypothesis is dead).
  bool signature(const HypPtr &H, bool UsePartialEval, std::string &Key) {
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      Key += 'x';
      Key += char('0' + (H->inputIndex() & 0x3F));
      return true;
    case Hypothesis::Kind::TblHole:
      Key += '?';
      return true;
    case Hypothesis::Kind::Apply: {
      Key += H->component()->name();
      Key += '(';
      bool HasValueHole = false;
      for (const HypPtr &C : H->children()) {
        if (C->isTableTyped()) {
          if (!signature(C, UsePartialEval, Key))
            return false;
          Key += ',';
        } else if (C->isValueHole()) {
          HasValueHole = true;
        }
      }
      Key += ')';
      if (UsePartialEval) {
        const std::optional<Table> &T = evalCached(H);
        bool Complete = !HasValueHole && H->numTblHoles() == 0 &&
                        H->numValueHoles() == 0;
        if (Complete && !T)
          return false;
        if (T) {
          const AttrValues &A = absCached(*T);
          char Buf[64];
          std::snprintf(Buf, sizeof(Buf), "@%lld.%lld.%lld.%lld",
                        (long long)A.Row, (long long)A.Col,
                        (long long)A.NewCols, (long long)A.NewVals);
          Key += Buf;
        }
      }
      return true;
    }
    default:
      Key += '!';
      return true;
    }
  }

  const std::optional<Table> &evalCached(const HypPtr &H) {
    auto It = EvalCache.find(H.get());
    if (It != EvalCache.end())
      return It->second;
    std::optional<Table> Result;
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      if (H->inputIndex() < Ex->Inputs.size())
        Result = Ex->Inputs[H->inputIndex()];
      break;
    case Hypothesis::Kind::Apply: {
      std::vector<Table> TableArgs;
      std::vector<TermPtr> ValueArgs;
      bool Ok = true;
      for (const HypPtr &C : H->children()) {
        if (C->isTableTyped()) {
          const std::optional<Table> &T = evalCached(C);
          if (!T) {
            Ok = false;
            break;
          }
          TableArgs.push_back(*T);
        } else if (C->isFilled()) {
          ValueArgs.push_back(C->term());
        } else {
          Ok = false;
          break;
        }
      }
      if (Ok)
        Result = H->component()->apply(TableArgs, ValueArgs);
      break;
    }
    default:
      break;
    }
    KeepAlive.push_back(H);
    return EvalCache.emplace(H.get(), std::move(Result)).first->second;
  }

  /// Pops any open scope so the core goes back at base scope; the member
  /// exprs are destroyed after this body and the lease last of all.
  ~Impl() {
    if (unsigned Open = Z3_solver_get_num_scopes(Ctx, Solver))
      Solver.pop(Open);
  }

  explicit Impl(std::shared_ptr<const ExampleContext> ExIn)
      : Ex(std::move(ExIn)), HoleTemplate(Ctx), HoleParams(Ctx) {
    // Compile ϕin once: a hole must be instantiated with one of the
    // inputs, i.e. carry some input's concrete (row, col) and the input
    // defaults group = 1, newCols = newVals = 0.
    auto Var = [&](const char *Name) { return Ctx.int_const(Name); };
    NodeVars Hole{Var("$h_r"), Var("$h_c"), Var("$h_g"), Var("$h_nc"),
                  Var("$h_nv")};
    z3::expr_vector Disj(Ctx);
    for (const AttrValues &A : Ex->InputAbs) {
      Disj.push_back(Hole.Row == Ctx.int_val(int64_t(A.Row)) &&
                     Hole.Col == Ctx.int_val(int64_t(A.Col)) &&
                     Hole.NewCols == 0 && Hole.NewVals == 0 &&
                     Hole.Group == 1);
    }
    HoleTemplate = z3::mk_or(Disj);
    for (TableAttr A : {TableAttr::Row, TableAttr::Col, TableAttr::Group,
                        TableAttr::NewCols, TableAttr::NewVals})
      HoleParams.push_back(Hole.get(A));
  }

  z3::expr freshVar(const char *Prefix) {
    std::string Name = std::string(Prefix) + std::to_string(NextVar++);
    return Ctx.int_const(Name.c_str());
  }

  NodeVars freshNode() {
    return {freshVar("r"), freshVar("c"), freshVar("g"), freshVar("nc"),
            freshVar("nv")};
  }

  /// Binds the concrete (non-group) attributes of \p N to \p A.
  void bindConcrete(z3::solver &S, const NodeVars &N, const AttrValues &A) {
    S.add(N.Row == Ctx.int_val(int64_t(A.Row)));
    S.add(N.Col == Ctx.int_val(int64_t(A.Col)));
    S.add(N.NewCols == Ctx.int_val(int64_t(A.NewCols)));
    S.add(N.NewVals == Ctx.int_val(int64_t(A.NewVals)));
  }

  /// Scope-1 generation: asserts the shape-determined skeleton of \p H
  /// (axioms, ϕin, input bindings, instantiated spec templates) and
  /// appends the node's variables to Vars in pre-order. Returns the
  /// node's index into Vars.
  size_t genShape(z3::solver &S, const HypPtr &H, SpecLevel Level,
                  DeduceStats &Stats) {
    size_t MyIdx = Vars.size();
    Vars.push_back(freshNode());
    NodeVars N = Vars[MyIdx]; // Vars may reallocate during recursion
    S.add(Compiler.axiomsFor(N));
    switch (H->kind()) {
    case Hypothesis::Kind::Input: {
      bindConcrete(S, N, Ex->InputAbs[H->inputIndex()]);
      S.add(N.Group == 1);
      return MyIdx;
    }
    case Hypothesis::Kind::TblHole: {
      z3::expr_vector Dst(Ctx);
      for (TableAttr A : {TableAttr::Row, TableAttr::Col, TableAttr::Group,
                          TableAttr::NewCols, TableAttr::NewVals})
        Dst.push_back(N.get(A));
      S.add(HoleTemplate.substitute(HoleParams, Dst));
      return MyIdx;
    }
    case Hypothesis::Kind::Apply: {
      std::vector<NodeVars> ArgVars;
      for (const HypPtr &C : H->children()) {
        if (!C->isTableTyped())
          continue;
        ArgVars.push_back(Vars[genShape(S, C, Level, Stats)]);
      }
      const SpecTemplate &T = Compiler.get(H->component(), Level);
      if (!T.Trivial)
        S.add(T.instantiate(ArgVars, Vars[MyIdx]));
      return MyIdx;
    }
    case Hypothesis::Kind::ValueHole:
    case Hypothesis::Kind::Filled:
      break;
    }
    assert(false && "table-typed node expected");
    return MyIdx;
  }

  /// Scope-2 generation: walks \p H in the same pre-order as genShape,
  /// binding the concrete abstraction of every subtree partial evaluation
  /// can evaluate, and running the interval fast path. Sets \p Dead when
  /// a complete subtree fails to evaluate or the fast path refutes a
  /// node. Returns the node's concrete abstraction when known.
  std::optional<AttrValues> genConcrete(z3::solver &S, const HypPtr &H,
                                        SpecLevel Level, bool UsePartialEval,
                                        bool &Dead, uint64_t &FastRejects) {
    size_t MyIdx = ConcreteIdx++;
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      return Ex->InputAbs[H->inputIndex()];
    case Hypothesis::Kind::TblHole:
      return std::nullopt;
    case Hypothesis::Kind::Apply: {
      std::vector<std::optional<AttrValues>> ArgConcrete;
      for (const HypPtr &C : H->children()) {
        if (!C->isTableTyped())
          continue;
        ArgConcrete.push_back(
            genConcrete(S, C, Level, UsePartialEval, Dead, FastRejects));
        if (Dead)
          return std::nullopt;
      }
      if (!UsePartialEval)
        return std::nullopt;
      const std::optional<Table> &T = evalCached(H);
      bool Complete = H->numTblHoles() == 0 && H->numValueHoles() == 0;
      if (Complete && !T) {
        Dead = true; // a component rejected its concrete arguments
        return std::nullopt;
      }
      if (!T)
        return std::nullopt;
      const AttrValues &A = absCached(*T);
      bindConcrete(S, Vars[MyIdx], A);
      // Concrete fast path: all table children concrete too -> check the
      // spec's non-group atoms directly before any Z3 work.
      bool AllArgs = true;
      std::vector<AttrValues> Args;
      for (const auto &AC : ArgConcrete) {
        if (!AC)
          AllArgs = false;
        else
          Args.push_back(*AC);
      }
      const SpecTemplate &Tpl = Compiler.get(H->component(), Level);
      if (AllArgs && !evalSpec(Tpl.NonGroup, Args, A)) {
        ++FastRejects;
        Dead = true;
      }
      return A;
    }
    case Hypothesis::Kind::ValueHole:
    case Hypothesis::Kind::Filled:
      break;
    }
    assert(false && "table-typed node expected");
    return std::nullopt;
  }
};

DeductionEngine::DeductionEngine(std::shared_ptr<const ExampleContext> Ex)
    : P(std::make_unique<Impl>(std::move(Ex))) {}

DeductionEngine::DeductionEngine(const std::vector<Table> &Inputs,
                                 const Table &Output)
    : DeductionEngine(ExampleContext::make(Inputs, Output)) {}

DeductionEngine::~DeductionEngine() = default;

const std::optional<Table> &DeductionEngine::evaluateCached(const HypPtr &H) {
  return P->evalCached(H);
}

void DeductionEngine::clearEvalCache() {
  P->EvalCache.clear();
  P->KeepAlive.clear();
}

void DeductionEngine::setRefutationStore(std::shared_ptr<RefutationStore> S) {
  P->Store = std::move(S);
}

const std::shared_ptr<const ExampleContext> &
DeductionEngine::exampleContext() const {
  return P->Ex;
}

bool DeductionEngine::deduce(const HypPtr &H, SpecLevel Level,
                             bool UsePartialEval) {
  ++Stats.Calls;
  using Clock = std::chrono::steady_clock;
  auto Since = [](Clock::time_point T) {
    return std::chrono::duration<double>(Clock::now() - T).count();
  };
  auto Start = Clock::now();
  auto Finish = [&](bool Result) {
    Stats.SolverSeconds += Since(Start);
    if (!Result)
      ++Stats.Rejections;
    return Result;
  };

  std::string Key;
  Key.reserve(256);
  Key += Level == SpecLevel::Spec1 ? '1' : '2';
  bool Live = P->signature(H, UsePartialEval, Key);
  Stats.SignatureSeconds += Since(Start);
  if (!Live) {
    // A complete subtree failed to evaluate: a concrete rejection before
    // any Z3 work, like the interval fast path's.
    ++Stats.FastPathRejections;
    return Finish(false);
  }
  auto Cached = P->VerdictCache.find(Key);
  if (Cached != P->VerdictCache.end()) {
    ++Stats.CacheHits;
    return Finish(Cached->second);
  }

  // The cross-engine store: the query hash folds the canonical sketch
  // shape with the full signature (level + concrete abstractions), so an
  // entry is exactly one ψ over this store's example.
  uint64_t QueryHash = 0;
  if (P->Store) {
    QueryHash = mix64(H->shapeHash() ^ hashString(Key));
    if (P->Store->isRefuted(QueryHash)) {
      ++Stats.StoreHits;
      if (Bus && Bus->wants(EventKind::RefutationStoreHit))
        Bus->publish(Event(EventKind::RefutationStoreHit, P->Ex->Fingerprint));
      P->VerdictCache.emplace(std::move(Key), false);
      return Finish(false);
    }
  }

  bool Dead = false;
  bool Result = true;
  {
    z3::solver &S = P->Solver;
    uint64_t SessionKey =
        mix64(H->shapeHash() ^
              (Level == SpecLevel::Spec1 ? 0x5370656331ULL : 0x5370656332ULL));
    std::optional<Clock::time_point> RebuildStart;
    if (!P->SessionOpen || P->SessionKey != SessionKey) {
      RebuildStart = Clock::now();
      if (P->SessionOpen) {
        S.pop();
        ++Stats.SolverPops;
      }
      // Re-using variable names across sessions lets the context cache
      // the symbol and AST objects instead of growing without bound.
      P->NextVar = 0;
      P->Vars.clear();
      S.push();
      ++Stats.SolverPushes;
      size_t Root = P->genShape(S, H, Level, Stats);
      // ϕout ∧ α(Tout)[y/x]: the root must match the output table; its
      // group is a fresh positive variable (Appendix A).
      P->bindConcrete(S, P->Vars[Root], P->Ex->OutputAbs);
      P->SessionOpen = true;
      P->SessionKey = SessionKey;
      ++Stats.SessionBuilds;
    } else {
      ++Stats.SessionHits;
    }

    S.push();
    ++Stats.SolverPushes;
    if (RebuildStart)
      Stats.SessionSeconds += Since(*RebuildStart);
    P->ConcreteIdx = 0;
    P->genConcrete(S, H, Level, UsePartialEval, Dead,
                   Stats.FastPathRejections);
    if (Dead) {
      Result = false;
    } else {
      ++Stats.SolverChecks;
      auto CheckStart = Clock::now();
      Result = S.check() != z3::unsat;
      Stats.CheckSeconds += Since(CheckStart);
      if (Bus && Bus->wants(EventKind::SolverCheck))
        Bus->publish(Event(EventKind::SolverCheck, P->Ex->Fingerprint,
                           Result ? 1 : 0));
    }
    S.pop();
    ++Stats.SolverPops;
  }
  if (!Result && P->Store) {
    P->Store->recordRefuted(QueryHash);
    ++Stats.StoreInserts;
  }
  P->VerdictCache.emplace(std::move(Key), Result);
  Stats.TemplateCompiles = P->Compiler.compilations() - P->CompilesAtLease;
  Stats.TemplateHits = P->Compiler.hits() - P->HitsAtLease;
  return Finish(Result);
}
