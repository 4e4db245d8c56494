//===- smt/Deduce.cpp - SMT-based deduction (Algorithm 2) --------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// ψ lives in three Z3 scopes, so that a query asserts almost nothing new:
//
//   base scope (the leased core; depends on no example): per tree
//     position, five attribute variables and their domain axioms, and per
//     (position, component specId(), spec level) one guarded spec
//     instance  a ⇒ φc(x_children, x_p).  A position is named by a code:
//     the root is 1, and table child k of position p is 4p + k + 1. The
//     first time a (position, level) misses, the instances of every
//     library component are asserted there in one base visit, so a solve
//     visits the base a few times at most, and a warm core not at all.
//
//   example scope (one per engine, pushed above base): α(Tout) on the
//     root and, per leaf position p the engine's queries have named and
//     per input i, the guarded bindings
//       in[p, i] ⇒ x_p = α(Ti) ∧ g_p = 1      hole[p] ⇒ ϕin(x_p).
//     A new leaf position joins the open scope; the scope is popped and
//     replayed only when a base visit needs the base scope.
//
//   query scope: the concrete abstractions partial evaluation conjoins
//     for subtrees complete under the current fill. Pushed and popped per
//     call, and only when there is one.
//
// deduce(H) checks under H's literals: a[p, c, level] for every component
// node, in[p, i] for every input leaf and hole[p] for every table hole. A
// literal that is not assumed is free, so the constraint it guards can be
// switched off: the query is Algorithm 2's ψ for H plus constraints on
// other variables that are satisfiable on their own, and every verdict is
// the one a fresh solver would give. What Z3 saves is the re-encoding and
// re-internalization of Φ(H) for every hypothesis: a warm core has every
// instance internalized already.
//
// Cores live on one process-wide free list, so a solve on any thread
// picks up a core, and its instances, some earlier solve warmed.
//
//===----------------------------------------------------------------------===//

#include "smt/Deduce.h"

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
using hashing::mix64;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

constexpr uint64_t RootPosition = 1;

/// Position codes give every node four child slots.
constexpr unsigned MaxTableArgs = 4;

/// The position code of table child \p K of position \p P.
uint64_t childPosition(uint64_t P, unsigned K) { return 4 * P + K + 1; }

/// Whether the children of a node at \p P taking \p NumTableArgs tables
/// have position codes: at most four of them, and deep enough trees
/// (about 30 levels) overflow the code.
bool encodable(uint64_t P, unsigned NumTableArgs) {
  return NumTableArgs <= MaxTableArgs &&
         P <= (UINT64_MAX - MaxTableArgs) / 4;
}

/// One tree position of a core: its attribute variables, and the literals
/// an example scope guards the position's input and hole bindings with.
struct Position {
  NodeVars X;
  z3::expr Hole;            ///< hole[p]
  std::vector<z3::expr> In; ///< in[p, i], grown to the widest example
};

/// Names one guarded spec instance of a core.
struct InstanceKey {
  uint64_t Pos;
  uint64_t SpecId;
  SpecLevel Level;

  bool operator==(const InstanceKey &O) const {
    return Pos == O.Pos && SpecId == O.SpecId && Level == O.Level;
  }
};

struct InstanceKeyHash {
  size_t operator()(const InstanceKey &K) const {
    return size_t(mix64(mix64(K.Pos) ^ (K.SpecId << 1) ^
                        uint64_t(K.Level == SpecLevel::Spec2)));
  }
};

/// The example-independent Z3 state of deduction. Building one costs
/// about 5 ms (context, solver, and ~17 template compiles for a typical
/// library), which used to be about half of an easy solve; its guarded
/// instances save every later solve the encoding of Φ(H).
struct Core {
  z3::context Ctx;
  /// Persistent solver. Its base scope holds only example-independent
  /// assertions (positions and guarded instances), so any example can
  /// use it.
  z3::solver Solver{Ctx};
  SpecCompiler Compiler{Ctx};
  unsigned Leases = 0;
  /// Every position with variables, by code. Elements stay in place as
  /// the map grows.
  std::unordered_map<uint64_t, Position> Positions;
  /// The guard literal of every asserted instance; none when the spec has
  /// no atoms.
  std::unordered_map<InstanceKey, std::optional<z3::expr>, InstanceKeyHash>
      Guards;

  /// Switches off the arithmetic solver's bound and equality propagation.
  /// Both walk the simplex rows of every instance the core has asserted,
  /// not only the ones a query assumes, so on a warm core they cost each
  /// check more than they save: over eight mid-size suite tasks, deduce
  /// time fell 1.14 -> 0.70 s (medians of 4 runs). Z3 decides the same
  /// formulas either way, so no verdict changes.
  Core() {
    z3::params Params(Ctx);
    Params.set("arith.propagation_mode", 0u);
    Params.set("arith.propagate_eqs", false);
    Solver.set(Params);
  }

  bool hasInstance(uint64_t P, const TableTransformer *X,
                   SpecLevel Level) const {
    return Guards.count({P, X->specId(), Level}) != 0;
  }

  /// Position \p P, created with its domain axioms on first use. Base
  /// scope only.
  Position &position(uint64_t P) {
    auto It = Positions.find(P);
    if (It != Positions.end())
      return It->second;
    std::string Code = std::to_string(P);
    auto Var = [&](const char *Attr) {
      return Ctx.int_const((Attr + Code).c_str());
    };
    NodeVars X{Var("r"), Var("c"), Var("g"), Var("nc"), Var("nv")};
    Solver.add(Compiler.axiomsFor(X));
    z3::expr Hole = Ctx.bool_const(("h" + Code).c_str());
    return Positions.emplace(P, Position{X, Hole, {}}).first->second;
  }

  /// Asserts a[P, X, Level] ⇒ φX(x_children, x_P) unless already there.
  /// Base scope only.
  void addInstance(uint64_t P, const TableTransformer *X, SpecLevel Level) {
    if (hasInstance(P, X, Level))
      return;
    std::vector<NodeVars> Args;
    for (unsigned K = 0; K != X->numTableArgs(); ++K)
      Args.push_back(position(childPosition(P, K)).X);
    const NodeVars &Result = position(P).X; // stays in place, see above
    const SpecTemplate &T = Compiler.get(X, Level);
    std::optional<z3::expr> Guard;
    if (!T.Trivial) {
      std::string Name = "a" + std::to_string(P) + "." +
                         std::to_string(X->specId()) +
                         (Level == SpecLevel::Spec1 ? ".1" : ".2");
      Guard = Ctx.bool_const(Name.c_str());
      Solver.add(z3::implies(*Guard, T.instantiate(Args, Result)));
    }
    Guards.emplace(InstanceKey{P, X->specId(), Level}, std::move(Guard));
  }
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
  /// context no live expr outside the core may reference.
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

  Core &operator*() const { return *C; }

private:
  std::unique_ptr<Core> C;
};

} // namespace

struct DeductionEngine::Impl {
  /// Declared first so it is destroyed last: every z3::expr below must be
  /// gone before the core's context can pass to another thread.
  CoreLease Lease;
  Core &Warm = *Lease;
  z3::solver &Solver = Warm.Solver;
  SpecCompiler &Compiler = Warm.Compiler;
  /// The compiler's cumulative counters when leased; stats report the
  /// difference, so they count this engine's work only.
  const uint64_t CompilesAtLease = Compiler.compilations();
  const uint64_t HitsAtLease = Compiler.hits();
  std::shared_ptr<const ExampleContext> Ex;
  /// The search's table components, whose instances a base visit asserts
  /// at every position it visits.
  std::vector<const TableTransformer *> Library;
  /// Whether this engine's example scope is pushed.
  bool ExampleOpen = false;
  /// The leaf positions the example scope binds, in binding order: those
  /// this engine's queries have named so far.
  std::vector<uint64_t> Bound;

  /// The current query, gathered by genConcrete: H's nodes by position,
  /// and the concrete abstractions partial evaluation binds.
  struct ComponentNode {
    uint64_t Pos;
    const TableTransformer *X;
  };
  std::vector<ComponentNode> Components;
  std::vector<std::pair<uint64_t, unsigned>> InputLeaves;
  std::vector<uint64_t> Holes;
  std::vector<std::pair<uint64_t, AttrValues>> Bindings;
  /// The query names a position no code exists for.
  bool Unencodable = false;

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

  /// Pops the example scope so the core goes back at base scope; the
  /// member exprs are destroyed after this body and the lease last of all.
  ~Impl() {
    if (unsigned Open = Z3_solver_get_num_scopes(Solver.ctx(), Solver))
      Solver.pop(Open);
  }

  explicit Impl(std::shared_ptr<const ExampleContext> ExIn)
      : Ex(std::move(ExIn)) {}

  /// Binds the concrete (non-group) attributes of \p N to \p A.
  void bindConcrete(const NodeVars &N, const AttrValues &A) {
    Solver.add(N.Row == Warm.Ctx.int_val(int64_t(A.Row)));
    Solver.add(N.Col == Warm.Ctx.int_val(int64_t(A.Col)));
    Solver.add(N.NewCols == Warm.Ctx.int_val(int64_t(A.NewCols)));
    Solver.add(N.NewVals == Warm.Ctx.int_val(int64_t(A.NewVals)));
  }

  /// Gathers the query for \p H at position \p Pos: walks \p H in
  /// pre-order, recording each node's position, the concrete abstraction
  /// of every subtree partial evaluation can evaluate, and running the
  /// interval fast path. Sets \p Dead when a complete subtree fails to
  /// evaluate or the fast path refutes a node. Returns the node's
  /// concrete abstraction when known.
  std::optional<AttrValues> genConcrete(const HypPtr &H, uint64_t Pos,
                                        SpecLevel Level, bool UsePartialEval,
                                        bool &Dead, uint64_t &FastRejects) {
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      InputLeaves.emplace_back(Pos, H->inputIndex());
      return Ex->InputAbs[H->inputIndex()];
    case Hypothesis::Kind::TblHole:
      Holes.push_back(Pos);
      return std::nullopt;
    case Hypothesis::Kind::Apply: {
      Components.push_back({Pos, H->component()});
      Unencodable =
          Unencodable || !encodable(Pos, H->component()->numTableArgs());
      std::vector<std::optional<AttrValues>> ArgConcrete;
      unsigned K = 0;
      for (const HypPtr &C : H->children()) {
        if (!C->isTableTyped())
          continue;
        ArgConcrete.push_back(genConcrete(C, childPosition(Pos, K++), Level,
                                          UsePartialEval, Dead, FastRejects));
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
      Bindings.emplace_back(Pos, A);
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

  /// Makes the core hold every position and instance the gathered query
  /// names, and the example scope be open and bind every leaf position.
  void openScopes(SpecLevel Level, DeduceStats &Stats) {
    Clock::time_point Start = Clock::now();
    bool Missing = false;
    for (const ComponentNode &N : Components)
      Missing = Missing || !Warm.hasInstance(N.Pos, N.X, Level);
    if (Missing) {
      if (ExampleOpen) {
        Solver.pop();
        ++Stats.SolverPops;
        ExampleOpen = false;
      }
      // One base visit: every library component at each position that
      // misses, so later hypotheses find their instances there.
      for (const ComponentNode &N : Components) {
        if (Warm.hasInstance(N.Pos, N.X, Level))
          continue;
        for (const TableTransformer *X : Library)
          Warm.addInstance(N.Pos, X, Level);
        Warm.addInstance(N.Pos, N.X, Level);
      }
    }
    if (ExampleOpen) {
      ++Stats.SessionHits;
    } else {
      Solver.push();
      ++Stats.SolverPushes;
      ++Stats.SessionBuilds;
      ExampleOpen = true;
      // ϕout ∧ α(Tout)[y/x]: the root must match the output table; its
      // group is a fresh positive variable (Appendix A).
      bindConcrete(Warm.Positions.at(RootPosition).X, Ex->OutputAbs);
      for (uint64_t Pos : Bound)
        bindLeaf(Pos);
    }
    // Leaf positions new to this engine join the open example scope.
    auto Join = [&](uint64_t Pos) {
      if (std::find(Bound.begin(), Bound.end(), Pos) == Bound.end()) {
        Bound.push_back(Pos);
        bindLeaf(Pos);
      }
    };
    for (const auto &L : InputLeaves)
      Join(L.first);
    for (uint64_t Pos : Holes)
      Join(Pos);
    Stats.SessionSeconds += secondsSince(Start);
  }

  /// Asserts the example bindings of leaf position \p Code in the example
  /// scope: in[p, i] ⇒ x_p = α(Ti) ∧ g_p = 1 for every input i, and
  /// hole[p] ⇒ ϕin(x_p), where ϕin says a hole must be instantiated with
  /// one of the inputs, i.e. carry some input's concrete (row, col) and
  /// the input defaults group = 1, newCols = newVals = 0.
  void bindLeaf(uint64_t Code) {
    Position &P = Warm.Positions.at(Code);
    z3::expr_vector SomeInput(Warm.Ctx);
    for (const AttrValues &A : Ex->InputAbs)
      SomeInput.push_back(P.X.Row == Warm.Ctx.int_val(int64_t(A.Row)) &&
                          P.X.Col == Warm.Ctx.int_val(int64_t(A.Col)) &&
                          P.X.NewCols == 0 && P.X.NewVals == 0 &&
                          P.X.Group == 1);
    Solver.add(z3::implies(P.Hole, z3::mk_or(SomeInput)));
    for (size_t I = 0; I != Ex->InputAbs.size(); ++I) {
      if (I == P.In.size()) {
        std::string Name =
            "i" + std::to_string(Code) + "." + std::to_string(I);
        P.In.push_back(Warm.Ctx.bool_const(Name.c_str()));
      }
      const AttrValues &A = Ex->InputAbs[I];
      Solver.add(z3::implies(
          P.In[I], P.X.Row == Warm.Ctx.int_val(int64_t(A.Row)) &&
                       P.X.Col == Warm.Ctx.int_val(int64_t(A.Col)) &&
                       P.X.NewCols == Warm.Ctx.int_val(int64_t(A.NewCols)) &&
                       P.X.NewVals == Warm.Ctx.int_val(int64_t(A.NewVals)) &&
                       P.X.Group == 1));
    }
  }

  /// The literals that switch on the gathered query's constraints.
  z3::expr_vector assumptions(SpecLevel Level) const {
    z3::expr_vector Lits(Warm.Ctx);
    for (const ComponentNode &N : Components)
      if (const std::optional<z3::expr> &Guard =
              Warm.Guards.at({N.Pos, N.X->specId(), Level}))
        Lits.push_back(*Guard);
    for (const auto &L : InputLeaves)
      Lits.push_back(Warm.Positions.at(L.first).In[L.second]);
    for (uint64_t Pos : Holes)
      Lits.push_back(Warm.Positions.at(Pos).Hole);
    return Lits;
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

void DeductionEngine::setLibrary(
    std::vector<const TableTransformer *> Components) {
  P->Library = std::move(Components);
}

const std::shared_ptr<const ExampleContext> &
DeductionEngine::exampleContext() const {
  return P->Ex;
}

bool DeductionEngine::deduce(const HypPtr &H, SpecLevel Level,
                             bool UsePartialEval) {
  ++Stats.Calls;
  Clock::time_point Start = Clock::now();
  auto Finish = [&](bool Result) {
    Stats.SolverSeconds += secondsSince(Start);
    if (!Result)
      ++Stats.Rejections;
    return Result;
  };

  std::string Key;
  Key.reserve(256);
  Key += Level == SpecLevel::Spec1 ? '1' : '2';
  bool Live = P->signature(H, UsePartialEval, Key);
  Stats.SignatureSeconds += secondsSince(Start);
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

  P->Components.clear();
  P->InputLeaves.clear();
  P->Holes.clear();
  P->Bindings.clear();
  P->Unencodable = false;
  bool Dead = false;
  P->genConcrete(H, RootPosition, Level, UsePartialEval, Dead,
                 Stats.FastPathRejections);
  // A tree past the reach of position codes is left unrefuted: deduction
  // may always answer "not refuted", never a wrong ⊥.
  bool Result = !Dead && P->Unencodable;
  if (!Dead && !P->Unencodable) {
    z3::solver &S = P->Solver;
    P->openScopes(Level, Stats);
    z3::expr_vector Assumptions = P->assumptions(Level);
    Clock::time_point CheckStart = Clock::now();
    bool Bound = !P->Bindings.empty();
    if (Bound) {
      S.push();
      ++Stats.SolverPushes;
      for (const auto &B : P->Bindings)
        P->bindConcrete(P->Warm.Positions.at(B.first).X, B.second);
    }
    ++Stats.SolverChecks;
    Result = S.check(Assumptions) != z3::unsat;
    if (Bound) {
      S.pop();
      ++Stats.SolverPops;
    }
    Stats.CheckSeconds += secondsSince(CheckStart);
  }
  P->VerdictCache.emplace(std::move(Key), Result);
  Stats.TemplateCompiles = P->Compiler.compilations() - P->CompilesAtLease;
  Stats.TemplateHits = P->Compiler.hits() - P->HitsAtLease;
  return Finish(Result);
}
