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
/// a few ms (context and solver), which used to be about half of an easy
/// solve; its guarded instances save every later solve the encoding of
/// Φ(H).
struct Core {
  z3::context Ctx;
  /// Persistent solver. Its base scope holds only example-independent
  /// assertions (positions and guarded instances), so any example can
  /// use it.
  z3::solver Solver{Ctx};
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
  /// time fell 1.14 -> 0.70 s (medians of 4 runs). Then selects the older
  /// simplex arithmetic solver (arith.solver=2) and turns relevancy off:
  /// a query is a few dozen linear atoms under a handful of assumed
  /// literals, too small for the default solver's and the relevancy
  /// filter's bookkeeping to pay. On the perfbench oneshot and search task
  /// sets the mean check fell 70.7 -> 50.6 and 69.7 -> 48.8 us over the
  /// same checks (morpheus and SQL suites at 5 s, 4-vCPU Xeon VM, Z3
  /// 4.8.12). Z3 decides the same formulas either way, so no verdict
  /// changes.
  Core() {
    z3::params Params(Ctx);
    Params.set("arith.propagation_mode", 0u);
    Params.set("arith.propagate_eqs", false);
    Params.set("arith.solver", 2u);
    Params.set("relevancy", 0u);
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
    Solver.add(nodeAxioms(X));
    z3::expr Hole = Ctx.bool_const(("h" + Code).c_str());
    return Positions.emplace(P, Position{X, Hole, {}}).first->second;
  }

  /// Asserts a[P, X, Level] ⇒ φX(x_children, x_P) unless already there.
  /// Returns whether it encoded a spec (none when X's spec at \p Level is
  /// `true`). Base scope only.
  bool addInstance(uint64_t P, const TableTransformer *X, SpecLevel Level) {
    if (hasInstance(P, X, Level))
      return false;
    // The positions exist even when the spec is `true`: the query's leaf
    // bindings name them.
    std::vector<NodeVars> Args;
    for (unsigned K = 0; K != X->numTableArgs(); ++K)
      Args.push_back(position(childPosition(P, K)).X);
    const NodeVars &Result = position(P).X; // stays in place, see above
    const SpecFormula &F = X->spec(Level);
    std::optional<z3::expr> Guard;
    if (!F.isTrue()) {
      std::string Name = "a" + std::to_string(P) + "." +
                         std::to_string(X->specId()) +
                         (Level == SpecLevel::Spec1 ? ".1" : ".2");
      Guard = Ctx.bool_const(Name.c_str());
      Solver.add(z3::implies(*Guard, encodeSpec(Ctx, F, Args, Result)));
    }
    Guards.emplace(InstanceKey{P, X->specId(), Level}, std::move(Guard));
    return !F.isTrue();
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
  std::shared_ptr<const ExampleContext> Ex;
  /// The search's table components, whose instances a base visit asserts
  /// at every position it visits.
  std::vector<const TableTransformer *> Library;
  /// Whether this engine's example scope is pushed.
  bool ExampleOpen = false;
  /// The leaf positions the example scope binds, in binding order: those
  /// this engine's queries have named so far.
  std::vector<uint64_t> Bound;

  /// The current query, gathered by gather(): its verdict key, H's nodes
  /// by position, and the concrete abstractions partial evaluation binds.
  std::string Key;
  struct ComponentNode {
    uint64_t Pos;
    const TableTransformer *X;
  };
  std::vector<ComponentNode> Components; ///< pre-order
  std::vector<std::pair<uint64_t, unsigned>> InputLeaves;
  std::vector<uint64_t> Holes;
  /// Post-order; the abstractions live in Ex or AbsCache.
  std::vector<std::pair<uint64_t, const AttrValues *>> Bindings;
  /// The query names a position no code exists for.
  bool Unencodable = false;
  /// The nodes the concrete fast path checks, in post-order: those whose
  /// table and table arguments are all concrete. A node's argument
  /// abstractions are FastArgs[FirstArg, FirstArg + NumArgs).
  struct FastNode {
    const TableTransformer *X;
    size_t FirstArg, NumArgs;
    const AttrValues *Result;
  };
  std::vector<FastNode> FastNodes;
  std::vector<const AttrValues *> FastArgs;
  /// The table arguments' abstractions (null when unknown) of the nodes
  /// on the walk's path, each node's above its parent's.
  std::vector<const AttrValues *> ArgStack;
  std::vector<AttrValues> ArgScratch;
  /// The root's component when the root check applies: the root's own
  /// table is not evaluated and each of its table arguments is an
  /// evaluated child, an input leaf or a table hole. RootArgs holds their
  /// abstractions, null for a hole.
  const TableTransformer *RootX = nullptr;
  std::vector<const AttrValues *> RootArgs;
  /// ϕin as the values a table hole may take: each input's row and col,
  /// with group 1 and no new cols or vals.
  std::vector<AttrValues> HoleAbs;

  /// One evaluated node: trees are immutable and structurally shared, so
  /// the node determines the subtree. The entry holds its node alive, so
  /// an address is never recycled under it.
  struct Evaluated {
    HypPtr Node;
    std::optional<Table> T;
  };
  /// The evaluation stack: Stack[0, Top) are live, innermost scope last.
  /// Slots above Top stay allocated for reuse, so an entry never moves
  /// and pushing allocates nothing once the stack has been this deep.
  std::vector<std::unique_ptr<Evaluated>> Stack;
  size_t Top = 0;

  /// Releases every entry above \p Mark.
  void releaseTo(size_t Mark) {
    while (Top > Mark) {
      Evaluated &E = *Stack[--Top];
      E.Node.reset();
      E.T.reset();
    }
  }

  /// α results keyed on the table's 64-bit fingerprint: distinct nodes that
  /// evaluate to the same table (a very common event during sketch
  /// completion) share one α computation, and entries outlive the
  /// evaluation stack's because they carry no node identity.
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
  /// share that key (e.g. every equal-shape filter predicate), so caching
  /// removes the bulk of Z3 calls.
  std::unordered_map<std::string, bool> VerdictCache;

  /// Gathers the query for \p H, the node at position \p Pos, in one walk:
  /// appends its verdict key, and records each node's position, the
  /// concrete abstraction of every subtree partial evaluation can evaluate,
  /// the nodes the fast path checks and what the root check binds. Sets
  /// \p Abs to the node's concrete abstraction, or null when it is unknown.
  /// Returns false when a complete subtree fails to evaluate (the
  /// hypothesis is dead).
  bool gather(const HypPtr &H, uint64_t Pos, bool UsePartialEval,
              const AttrValues *&Abs) {
    Abs = nullptr;
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      Key += 'x';
      Key += char('0' + (H->inputIndex() & 0x3F));
      InputLeaves.emplace_back(Pos, unsigned(H->inputIndex()));
      if (H->inputIndex() < Ex->InputAbs.size())
        Abs = &Ex->InputAbs[H->inputIndex()];
      return true;
    case Hypothesis::Kind::TblHole:
      Key += '?';
      Holes.push_back(Pos);
      return true;
    case Hypothesis::Kind::Apply: {
      // A component is named by its fixed-width specId() behind a 'c', so
      // the key stays injective and two components that share a name
      // never share a verdict.
      const TableTransformer *X = H->component();
      uint64_t Id = X->specId();
      Key += 'c';
      Key.append(reinterpret_cast<const char *>(&Id), sizeof(Id));
      Key += '(';
      Components.push_back({Pos, X});
      Unencodable = Unencodable || !encodable(Pos, X->numTableArgs());
      size_t Base = ArgStack.size();
      // The root check binds a table hole to ϕin, but knows nothing of an
      // Apply child with no table.
      bool RootCheck = Pos == RootPosition;
      unsigned K = 0;
      for (const HypPtr &C : H->children()) {
        if (!C->isTableTyped())
          continue;
        const AttrValues *Arg;
        if (!gather(C, childPosition(Pos, K++), UsePartialEval, Arg))
          return false;
        ArgStack.push_back(Arg);
        RootCheck = RootCheck && (Arg || C->isTblHole());
        Key += ',';
      }
      Key += ')';
      const Table *T = UsePartialEval ? evalCached(H) : nullptr;
      if (T) {
        Abs = &absCached(*T);
        // A fixed-width field after the '@' (which only ever follows a
        // ')'), so the key stays injective.
        Key += '@';
        for (int64_t V : {Abs->Row, Abs->Col, Abs->NewCols, Abs->NewVals})
          Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
        Bindings.emplace_back(Pos, Abs);
        if (std::find(ArgStack.begin() + Base, ArgStack.end(), nullptr) ==
            ArgStack.end()) {
          FastNodes.push_back({X, FastArgs.size(), ArgStack.size() - Base,
                               Abs});
          FastArgs.insert(FastArgs.end(), ArgStack.begin() + Base,
                          ArgStack.end());
        }
      } else if (RootCheck) {
        RootX = X;
        RootArgs.assign(ArgStack.begin() + Base, ArgStack.end());
      }
      ArgStack.resize(Base);
      // A complete subtree that does not evaluate: a component rejected
      // its concrete arguments.
      return T || !UsePartialEval || H->numTblHoles() != 0 ||
             H->numValueHoles() != 0;
    }
    case Hypothesis::Kind::ValueHole:
    case Hypothesis::Kind::Filled:
      break;
    }
    assert(false && "table-typed node expected");
    return true;
  }

  /// Gathers the query for \p H from the root.
  bool gather(const HypPtr &H, SpecLevel Level, bool UsePartialEval) {
    Key.clear();
    Key += Level == SpecLevel::Spec1 ? '1' : '2';
    Components.clear();
    InputLeaves.clear();
    Holes.clear();
    Bindings.clear();
    Unencodable = false;
    FastNodes.clear();
    FastArgs.clear();
    ArgStack.clear();
    RootX = nullptr;
    const AttrValues *Abs;
    return gather(H, RootPosition, UsePartialEval, Abs);
  }

  /// The concrete fast path over the gathered nodes: whether some node's
  /// group-free spec is false on its concrete abstractions. Checks in
  /// post-order, so the innermost refuted node decides. Then the root
  /// check: whether the root's group-free spec is false against α(Tout)
  /// for every binding of its table arguments.
  bool fastPathRefutes(SpecLevel Level) {
    for (const FastNode &N : FastNodes) {
      ArgScratch.clear();
      for (size_t I = 0; I != N.NumArgs; ++I)
        ArgScratch.push_back(*FastArgs[N.FirstArg + I]);
      if (!evalSpec(N.X->groupFreeSpec(Level), ArgScratch, *N.Result))
        return true;
    }
    if (!RootX)
      return false;
    const SpecFormula &F = RootX->groupFreeSpec(Level);
    ArgScratch.resize(RootArgs.size());
    return !F.isTrue() && !rootAdmits(F, 0);
  }

  /// Whether some binding of the root's table arguments K onwards, a hole
  /// to any of HoleAbs, satisfies \p F against α(Tout) (its group free:
  /// \p F does not name it). At most inputs^holes bindings.
  bool rootAdmits(const SpecFormula &F, size_t K) {
    if (K == RootArgs.size())
      return evalSpec(F, ArgScratch, Ex->OutputAbs);
    if (RootArgs[K]) {
      ArgScratch[K] = *RootArgs[K];
      return rootAdmits(F, K + 1);
    }
    for (const AttrValues &A : HoleAbs) {
      ArgScratch[K] = A;
      if (rootAdmits(F, K + 1))
        return true;
    }
    return false;
  }

  /// evaluateCached's work: the node's table, or null.
  const Table *evalCached(const HypPtr &H) {
    // A node with holes never evaluates, and gets no entry.
    if (H->numTblHoles() != 0 || H->numValueHoles() != 0)
      return nullptr;
    if (H->isInput())
      return H->inputIndex() < Ex->Inputs.size() ? &Ex->Inputs[H->inputIndex()]
                                                 : nullptr;
    for (size_t I = Top; I-- != 0;)
      if (Stack[I]->Node == H)
        return Stack[I]->T ? &*Stack[I]->T : nullptr;
    assert(H->isApply() && "complete table node expected");
    const TableTransformer *X = H->component();
    std::optional<Table> Result;
    std::vector<Table> TableArgs;
    std::vector<TermPtr> ValueArgs;
    TableArgs.reserve(X->numTableArgs());
    ValueArgs.reserve(X->valueParams().size());
    bool Ok = true;
    for (const HypPtr &C : H->children()) {
      if (C->isTableTyped()) {
        const Table *T = evalCached(C);
        if (!T) {
          Ok = false;
          break;
        }
        TableArgs.push_back(*T);
      } else {
        ValueArgs.push_back(C->term()); // no holes: a filled value
      }
    }
    if (Ok)
      Result = X->apply(TableArgs, ValueArgs);
    if (Top == Stack.size())
      Stack.push_back(std::make_unique<Evaluated>());
    Evaluated &E = *Stack[Top++];
    E.Node = H;
    E.T = std::move(Result);
    return E.T ? &*E.T : nullptr;
  }

  /// Pops the example scope so the core goes back at base scope; the
  /// member exprs are destroyed after this body and the lease last of all.
  ~Impl() {
    if (unsigned Open = Z3_solver_get_num_scopes(Solver.ctx(), Solver))
      Solver.pop(Open);
  }

  explicit Impl(std::shared_ptr<const ExampleContext> ExIn)
      : Ex(std::move(ExIn)) {
    for (const AttrValues &A : Ex->InputAbs)
      HoleAbs.push_back({A.Row, A.Col, 1, 0, 0});
  }

  /// Binds the concrete (non-group) attributes of \p N to \p A.
  void bindConcrete(const NodeVars &N, const AttrValues &A) {
    Solver.add(N.Row == Warm.Ctx.int_val(int64_t(A.Row)));
    Solver.add(N.Col == Warm.Ctx.int_val(int64_t(A.Col)));
    Solver.add(N.NewCols == Warm.Ctx.int_val(int64_t(A.NewCols)));
    Solver.add(N.NewVals == Warm.Ctx.int_val(int64_t(A.NewVals)));
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
          Stats.TemplateCompiles += Warm.addInstance(N.Pos, X, Level);
        Stats.TemplateCompiles += Warm.addInstance(N.Pos, N.X, Level);
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

const Table *DeductionEngine::evaluateCached(const HypPtr &H) {
  return P->evalCached(H);
}

DeductionEngine::EvalScope::EvalScope(DeductionEngine &E)
    : P(*E.P), Mark(P.Top) {}

DeductionEngine::EvalScope::~EvalScope() { P.releaseTo(Mark); }

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

  bool Live = P->gather(H, Level, UsePartialEval);
  Stats.SignatureSeconds += secondsSince(Start);
  if (!Live) {
    // A complete subtree failed to evaluate: a concrete rejection before
    // any Z3 work, like the interval fast path's.
    ++Stats.FastPathRejections;
    return Finish(false);
  }
  auto Cached = P->VerdictCache.find(P->Key);
  if (Cached != P->VerdictCache.end()) {
    ++Stats.CacheHits;
    return Finish(Cached->second);
  }

  bool Result;
  if (P->fastPathRefutes(Level)) {
    ++Stats.FastPathRejections;
    Result = false;
  } else if (P->Unencodable) {
    // A tree past the reach of position codes is left unrefuted:
    // deduction may always answer "not refuted", never a wrong ⊥.
    Result = true;
  } else {
    z3::solver &S = P->Solver;
    P->openScopes(Level, Stats);
    z3::expr_vector Assumptions = P->assumptions(Level);
    Clock::time_point CheckStart = Clock::now();
    bool Bound = !P->Bindings.empty();
    if (Bound) {
      S.push();
      ++Stats.SolverPushes;
      for (const auto &B : P->Bindings)
        P->bindConcrete(P->Warm.Positions.at(B.first).X, *B.second);
    }
    ++Stats.SolverChecks;
    Result = S.check(Assumptions) != z3::unsat;
    if (Bound) {
      S.pop();
      ++Stats.SolverPops;
    }
    Stats.CheckSeconds += secondsSince(CheckStart);
  }
  P->VerdictCache.emplace(P->Key, Result);
  return Finish(Result);
}
