//===- synth/Synthesizer.cpp - Top-level synthesis algorithm -----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "bus/EventBus.h"
#include "synth/Inhabitation.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <queue>
#include <unordered_map>

using namespace morpheus;

namespace {

/// Weight of program size in the worklist cost: the Occam's-razor tie to
/// the n-gram score.
constexpr double CostPerComponent = 4.0;

/// Returns the node of \p Tree at \p Path (child indices from the root).
const HypPtr &nodeAt(const HypPtr &Tree, const std::vector<size_t> &Path) {
  const HypPtr *N = &Tree;
  for (size_t I : Path) {
    assert((*N)->isApply() && I < (*N)->children().size() && "bad hole path");
    N = &(*N)->children()[I];
  }
  return *N;
}

/// Returns \p Tree with the node at \p Path replaced by \p Replacement,
/// rebuilding only the spine.
HypPtr replaceAtPath(const HypPtr &Tree, const std::vector<size_t> &Path,
                     size_t Depth, HypPtr Replacement) {
  if (Depth == Path.size())
    return Replacement;
  assert(Tree->isApply() && "bad hole path");
  std::vector<HypPtr> Children = Tree->children();
  size_t I = Path[Depth];
  Children[I] =
      replaceAtPath(Children[I], Path, Depth + 1, std::move(Replacement));
  return Hypothesis::apply(Tree->component(), std::move(Children));
}

/// A value hole of a sketch, in bottom-up completion order.
struct HoleInfo {
  std::vector<size_t> Path;     ///< path to the hole itself
  std::vector<size_t> NodePath; ///< path to the owning Apply node
  ParamKind Kind;
  size_t FirstOfNode; ///< index of the owning node's first value hole
  bool LastOfNode;    ///< filling it makes the owning subtree complete
};

/// Collects value holes in post-order of their owning Apply nodes, so table
/// children are always complete before a node's value holes are filled
/// (the bottom-up strategy of Section 7).
void collectHoles(const HypPtr &Node, std::vector<size_t> &Path,
                  std::vector<HoleInfo> &Out) {
  if (!Node->isApply())
    return;
  const auto &Children = Node->children();
  for (size_t I = 0; I != Children.size(); ++I) {
    if (!Children[I]->isTableTyped())
      continue;
    Path.push_back(I);
    collectHoles(Children[I], Path, Out);
    Path.pop_back();
  }
  size_t FirstHole = Out.size();
  for (size_t I = 0; I != Children.size(); ++I) {
    if (!Children[I]->isValueHole())
      continue;
    HoleInfo HI;
    HI.NodePath = Path;
    HI.Path = Path;
    HI.Path.push_back(I);
    HI.Kind = Children[I]->paramKind();
    HI.FirstOfNode = FirstHole;
    HI.LastOfNode = false;
    Out.push_back(std::move(HI));
  }
  if (Out.size() > FirstHole)
    Out.back().LastOfNode = true;
}

/// Bit-for-bit table identity: schema, row count and order, grouping, and
/// every cell (same type, same string id, same double bits). Stricter than
/// equalsOrdered, whose numeric tolerance equates tables that a later
/// mutate can tell apart.
bool identicalTables(const Table &A, const Table &B) {
  if (A.numRows() != B.numRows() || !(A.schema() == B.schema()) ||
      A.groupCols() != B.groupCols())
    return false;
  for (size_t C = 0, E = A.numCols(); C != E; ++C) {
    if (A.colHandle(C) == B.colHandle(C))
      continue; // one aliased column
    const ColumnData &CA = A.col(C), &CB = B.col(C);
    for (size_t R = 0, N = CA.size(); R != N; ++R) {
      const Value &X = CA[R], &Y = CB[R];
      if (X.type() != Y.type())
        return false;
      if (X.isStr()) {
        if (X.strId() != Y.strId())
          return false;
        continue;
      }
      double DX = X.num(), DY = Y.num();
      if (std::memcmp(&DX, &DY, sizeof(double)) != 0)
        return false;
    }
  }
  return true;
}

/// The names of \p Lib's table transformers, in library order.
std::vector<std::string> componentNames(const ComponentLibrary &Lib) {
  std::vector<std::string> Names;
  for (const TableTransformer *T : Lib.TableTransformers)
    Names.push_back(T->name());
  return Names;
}

/// One synthesis run; bundles the state Algorithm 1 threads through its
/// subroutines.
class SearchContext {
public:
  SearchContext(const ComponentLibrary &Lib, const SynthesisConfig &Cfg,
                std::shared_ptr<const ExampleContext> ExIn)
      : Lib(Lib), Cfg(Cfg), Ex(std::move(ExIn)), Inputs(Ex->Inputs),
        Output(Ex->Output), Engine(Ex), Inhab(Lib),
        NGram(NGramModel::standard(), componentNames(Lib)),
        Deadline(std::chrono::steady_clock::now() + Cfg.Timeout) {
    if (Cfg.Deadline && *Cfg.Deadline < Deadline)
      Deadline = *Cfg.Deadline;
    Engine.setLibrary(Lib.TableTransformers);
    // Raw pointer on the hot path; Cfg (alive for the whole run) keeps
    // the shared ownership.
    Bus = Cfg.Bus.get();
    // Warm the example's comparison caches once per search: every candidate
    // check reuses the output's fingerprint and canonical row permutation.
    OutputFingerprint = Output.fingerprint();
    Output.sortedPermutation();
  }

  SynthesisResult run();

private:
  bool expired() {
    if (TimedOut)
      return true;
    if ((++ExpiryPoll & 0xF) != 0)
      return false;
    TimedOut = std::chrono::steady_clock::now() >= Deadline ||
               Cfg.Cancel.stopRequested();
    return TimedOut;
  }

  /// True when the current sketch used up its completion budget.
  bool sketchBudgetSpent() const {
    return Cfg.MaxWorkPerSketch != 0 && SketchWork > Cfg.MaxWorkPerSketch;
  }

  /// The n-gram score of H's component sentence plus a per-component
  /// charge. The sentence is H's applications in post-order (as
  /// collectComponentNames lists them), summed in NGramModel::score's
  /// order through the library's transition table.
  double costOf(const HypPtr &H) const {
    double Size = double(H->numApplies());
    if (!Cfg.UseNGram)
      return Size;
    double Cost = 0;
    size_t Prev = NGram.marker();
    addTransitions(*H, Prev, Cost);
    return Cost + NGram.cost(Prev, NGram.marker()) + CostPerComponent * Size;
  }

  /// Adds the transitions into H's applications, in post-order, to Cost;
  /// Prev holds the index of the last component added.
  void addTransitions(const Hypothesis &H, size_t &Prev, double &Cost) const {
    if (!H.isApply())
      return;
    for (const HypPtr &C : H.children())
      addTransitions(*C, Prev, Cost);
    const std::vector<const TableTransformer *> &Comps = Lib.TableTransformers;
    size_t Next = size_t(std::find(Comps.begin(), Comps.end(), H.component()) -
                         Comps.begin());
    assert(Next != Comps.size() && "component outside the library");
    Cost += NGram.cost(Prev, Next);
    Prev = Next;
  }

  bool deduce(const HypPtr &H) {
    return Engine.deduce(H, Cfg.Level, Cfg.UsePartialEval);
  }

  /// The exact candidate check. Cheap rejections first; under unordered
  /// compare the O(1) fingerprint test rejects almost every mismatch before
  /// any sort or cell compare (equalsUnordered re-checks it, cached).
  bool equalsOutput(const Table &T) const {
    if (T.numRows() != Output.numRows() || !(T.schema() == Output.schema()))
      return false;
    return Cfg.OrderedCompare ? T.equalsOrdered(Output)
                              : T.fingerprint() == OutputFingerprint &&
                                    T.equalsUnordered(Output);
  }

  bool checkCandidate(const HypPtr &Candidate) {
    ++Stats.CandidatesChecked;
    ++SketchWork;
    const Table *T = Engine.evaluateCached(Candidate);
    if (!T || !equalsOutput(*T))
      return false;
    Solution = Candidate;
    return true;
  }

  /// FILLSKETCH (Figure 14): backtracking over the sketch's value holes in
  /// bottom-up order. Returns true when a solution was found.
  bool fillSketch(const HypPtr &Sketch);
  bool fillHoles(size_t Index, const HypPtr &Tree,
                 const std::vector<HoleInfo> &Holes);
  /// The candidate loop of a sketch's final value hole over its terms.
  bool fillLastHole(const HypPtr &Tree, const HoleInfo &HI,
                    const TermList &List);
  /// Whether filling the final hole with \p T makes Frames evaluate to
  /// the output table.
  bool yieldsOutput(const TermPtr &T);

  /// Sets Universe to the tables whose contents finitize the candidate
  /// universe for a hole of \p Node; false if a child fails to evaluate.
  /// With partial evaluation these are the node's concrete child tables;
  /// without it, only the example's tables are available (Section 1:
  /// partial evaluation "drives enumerative search").
  bool universeFor(const HypPtr &Node);

  /// Publishes a scalar event when a bus is attached and some subscriber
  /// wants the kind; otherwise one pointer test (no bus) or one relaxed
  /// load (bus, no subscriber).
  void emit(EventKind K, uint64_t A = 0) {
    if (Bus && Bus->wants(K))
      Bus->publish(Event(K, Ex->Fingerprint, A));
  }

  const ComponentLibrary &Lib;
  const SynthesisConfig &Cfg;
  std::shared_ptr<const ExampleContext> Ex;
  const std::vector<Table> &Inputs;
  const Table &Output;
  uint64_t OutputFingerprint = 0;
  DeductionEngine Engine;
  Inhabitation Inhab;
  /// The standard n-gram model over the library's component names, by
  /// index into Lib.TableTransformers.
  NGramModel::Table NGram;
  std::chrono::steady_clock::time_point Deadline;
  unsigned ExpiryPoll = 0;
  bool TimedOut = false;
  uint64_t SketchWork = 0;
  SynthesisStats Stats;
  HypPtr Solution;
  EventBus *Bus = nullptr;
  /// universeFor's result, read by Inhab.terms() right after: pointers
  /// into the evaluation stack or Inputs.
  std::vector<const Table *> Universe;

  /// One application on the path from a final hole's owning node up to
  /// the root, with every argument but one fixed for all the hole's
  /// candidates. Slot is the hole's place in the owning node's ValueArgs,
  /// and the path child's place in an ancestor's TableArgs.
  struct Frame {
    const TableTransformer *X = nullptr;
    std::vector<Table> TableArgs;
    std::vector<TermPtr> ValueArgs;
    size_t Slot = SIZE_MAX;
  };
  /// fillLastHole's frames, the root's first and the owning node's last.
  std::vector<Frame> Frames;

  /// A table one completed node evaluated to under the current prefix,
  /// with the sketch work the rest of the completion consumed after it.
  /// The memo owns the table (a copy shares the column buffers): it
  /// outlives the evaluation scope of the fill that produced it.
  struct ExploredTable {
    Table T;
    uint64_t Work;
  };
  /// The observational-equivalence memo of sketch completion, one per
  /// node, indexed by the node's first value hole and keyed on table
  /// fingerprints. Cleared whenever the search enters that first hole,
  /// i.e. whenever the prefix the node's completions depend on changes.
  std::vector<std::unordered_multimap<uint64_t, ExploredTable>> NodeMemos;
};

bool SearchContext::universeFor(const HypPtr &Node) {
  Universe.clear();
  if (!Cfg.UsePartialEval) {
    // No-partial-evaluation ablation: the universe degrades to the input
    // tables (new-name holes still draw from the output header, which the
    // enumerator receives separately).
    for (const Table &T : Inputs)
      Universe.push_back(&T);
    return true;
  }
  for (const HypPtr &C : Node->children()) {
    if (!C->isTableTyped())
      continue;
    const Table *T = Engine.evaluateCached(C);
    if (!T)
      return false; // a completed child fails to evaluate
    Universe.push_back(T);
  }
  return true;
}

bool SearchContext::fillHoles(size_t Index, const HypPtr &Tree,
                              const std::vector<HoleInfo> &Holes) {
  if (expired())
    return false;
  if (Index == Holes.size())
    return checkCandidate(Tree);

  if (sketchBudgetSpent())
    return false;
  const HoleInfo &HI = Holes[Index];
  // A new prefix for this node: nothing is explored under it yet. (An
  // empty map skips clear(), which would zero its whole bucket array.)
  if (HI.FirstOfNode == Index && !NodeMemos[Index].empty())
    NodeMemos[Index].clear();
  if (!universeFor(nodeAt(Tree, HI.NodePath)))
    return false;
  // Held for the whole loop: a nested fill may drop the Inhab memo.
  TermListPtr List = Inhab.terms(HI.Kind, Universe, Output, unsigned(Index));

  // The final hole's completions all go straight to the candidate check,
  // which subsumes deduction on a fully complete tree.
  if (Index + 1 == Holes.size())
    return fillLastHole(Tree, HI, *List);

  for (const HypPtr &Leaf : List->Leaves) {
    if (expired())
      return false;
    // What this fill evaluates is released when the next one begins.
    DeductionEngine::EvalScope Scope(Engine);
    HypPtr NewTree = replaceAtPath(Tree, HI.Path, 0, Leaf);
    std::unordered_multimap<uint64_t, ExploredTable> *Memo = nullptr;
    const Table *Completed = nullptr;
    if (HI.LastOfNode) {
      const HypPtr &Done = nodeAt(NewTree, HI.NodePath);
      // The owning subtree is now complete: partial evaluation gives
      // deduction a concrete table to abstract (rule 1/3 of Fig. 14).
      if (Cfg.UseDeduction && Cfg.UsePartialEval) {
        ++Stats.PartialFillsTried;
        ++SketchWork;
        if (!deduce(NewTree)) {
          ++Stats.PartialFillsPruned;
          continue; // refuted; try the next candidate
        }
      } else if (!Engine.evaluateCached(Done)) {
        continue; // plain enumerative search still evaluates
      }
      // Holes fill in post-order, so the rest of the completion sees
      // this node only through its table: a table already explored
      // under this prefix repeats a sub-search that found nothing.
      // Skip it, but charge the work it consumed the first time, so
      // the sketch budget cuts exactly where it would have.
      if (Cfg.UsePartialEval) {
        // Deduction evaluated every complete subtree, or refuted.
        Completed = Engine.evaluateCached(Done);
        assert(Completed && "complete node unevaluated");
        Memo = &NodeMemos[HI.FirstOfNode];
        auto Range = Memo->equal_range(Completed->fingerprint());
        auto Seen = std::find_if(Range.first, Range.second, [&](auto &E) {
          return identicalTables(E.second.T, *Completed);
        });
        if (Seen != Range.second) {
          ++Stats.ReusedCompletions;
          SketchWork += Seen->second.Work;
          if (TimedOut || sketchBudgetSpent())
            return false;
          continue;
        }
      }
    }
    uint64_t WorkBefore = SketchWork;
    if (fillHoles(Index + 1, NewTree, Holes))
      return true;
    if (TimedOut || sketchBudgetSpent())
      return false;
    if (Memo)
      Memo->emplace(Completed->fingerprint(),
                    ExploredTable{*Completed, SketchWork - WorkBefore});
  }
  return false;
}

bool SearchContext::fillLastHole(const HypPtr &Tree, const HoleInfo &HI,
                                 const TermList &List) {
  // Every candidate differs from its siblings only in the term filled into
  // this one hole, so everything else the tree evaluates is shared. The
  // owning node and each of its ancestors become one frame, gathered once
  // from the evaluation stack. A candidate then runs the owning node's
  // kernel, and each ancestor's with the table from below put in place of
  // that child: no candidate tree is built and the evaluation stack does
  // not grow.
  Frames.resize(HI.NodePath.size() + 1);
  bool Dead = false;
  const HypPtr *N = &Tree;
  for (size_t D = 0; D != Frames.size(); ++D) {
    Frame &F = Frames[D];
    F.X = (*N)->component();
    F.TableArgs.clear();
    F.ValueArgs.clear();
    F.Slot = SIZE_MAX;
    const HypPtr *Next = nullptr;
    const std::vector<HypPtr> &Children = (*N)->children();
    for (size_t I = 0; I != Children.size(); ++I) {
      const HypPtr &C = Children[I];
      if (D != HI.NodePath.size() && I == HI.NodePath[D]) {
        F.Slot = F.TableArgs.size(); // filled per candidate
        F.TableArgs.emplace_back();
        Next = &C;
      } else if (C->isTableTyped()) {
        const Table *T = Engine.evaluateCached(C);
        Dead = Dead || !T;
        F.TableArgs.push_back(T ? *T : Table());
      } else if (C->isFilled()) {
        F.ValueArgs.push_back(C->term());
      } else {
        assert(C->isValueHole() && "unexpected child kind");
        F.Slot = F.ValueArgs.size(); // exactly one: the last hole
        F.ValueArgs.push_back(nullptr);
      }
    }
    N = Next;
  }

  for (size_t I = 0, E = List.Terms.size(); I != E; ++I) {
    if (expired())
      return false;
    // Charged before any gate or kernel, so the sketch budget cuts where
    // it would if every candidate were evaluated. A dead child makes
    // every candidate evaluate to nothing: each is only charged.
    ++Stats.CandidatesChecked;
    ++SketchWork;
    if (!Dead && yieldsOutput(List.Terms[I])) {
      Solution = replaceAtPath(Tree, HI.Path, 0, List.Leaves[I]);
      return true;
    }
    if (TimedOut || sketchBudgetSpent())
      return false;
  }
  return false;
}

bool SearchContext::yieldsOutput(const TermPtr &T) {
  Frame &Own = Frames.back();
  Own.ValueArgs[Own.Slot] = T;
  std::optional<Table> Result;
  for (size_t D = Frames.size(); D-- != 0;) {
    Frame &F = Frames[D];
    if (Result)
      F.TableArgs[F.Slot] = std::move(*Result);
    // The root's header gate runs before its kernel: almost every
    // candidate's output has the wrong header, and the gate rejects it
    // without building the table.
    if (D == 0 && !F.X->mayYield(F.TableArgs, F.ValueArgs, Output))
      return false;
    Result = F.X->apply(F.TableArgs, F.ValueArgs);
    if (!Result)
      return false;
  }
  return equalsOutput(*Result);
}

bool SearchContext::fillSketch(const HypPtr &Sketch) {
  SketchWork = 0;
  std::vector<HoleInfo> Holes;
  std::vector<size_t> Path;
  collectHoles(Sketch, Path, Holes);
  if (NodeMemos.size() < Holes.size())
    NodeMemos.resize(Holes.size());
  // Hole fills and candidate checks run millions of times; the bus sees
  // ONE event per sketch completion, closing its SketchGenerated span.
  bool Found = fillHoles(0, Sketch, Holes);
  emit(EventKind::HoleFillBatch);
  // The memos only help within one sketch's completion; drop their tables.
  for (auto &Memo : NodeMemos)
    if (!Memo.empty())
      Memo.clear();
  return Found;
}

SynthesisResult SearchContext::run() {
  auto Start = std::chrono::steady_clock::now();

  // One cost-ordered worklist per program size; each iteration services
  // the class whose cheapest hypothesis costs least, ties going to the
  // smaller size, which fixes the order equal-cost hypotheses are tried
  // in. Size fairness in the sense of the paper's per-size threads
  // (Section 8) is the portfolio's job, not this loop's.
  using QueueItem = std::pair<double, HypPtr>;
  auto Cmp = [](const QueueItem &A, const QueueItem &B) {
    return A.first > B.first;
  };
  using Queue =
      std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(Cmp)>;
  std::vector<Queue> Worklists(size_t(Cfg.MaxComponents) + 1, Queue(Cmp));
  Worklists[0].emplace(0.0, Hypothesis::tblHole());

  auto PickClass = [&]() -> int {
    int Best = -1;
    for (size_t K = 0; K != Worklists.size(); ++K)
      if (!Worklists[K].empty() &&
          (Best < 0 ||
           Worklists[K].top().first < Worklists[size_t(Best)].top().first))
        Best = int(K);
    return Best;
  };

  for (int Class = PickClass(); Class >= 0 && !expired();
       Class = PickClass()) {
    HypPtr H = Worklists[size_t(Class)].top().second;
    Worklists[size_t(Class)].pop();
    ++Stats.HypothesesExplored;

    // Line 8 of Algorithm 1: try to refute H before converting it into
    // sketches (holes are only constrained to match *some* input).
    // Viability only gates the sketch phase, so hypotheses below a
    // portfolio member's size class skip the solver call entirely.
    bool InSizeClass = H->numApplies() >= Cfg.MinComponents;
    bool Viable = true;
    if (H->isApply() && Cfg.UseDeduction && InSizeClass)
      Viable = deduce(H);

    if (Viable && InSizeClass) {
      for (const HypPtr &S : H->sketches(Inputs.size())) {
        if (expired())
          break;
        ++Stats.SketchesGenerated;
        emit(EventKind::SketchGenerated, S->numApplies());
        // What deduction and completion evaluate for this sketch is
        // released when it is done.
        DeductionEngine::EvalScope Scope(Engine);
        if (S->isApply() && Cfg.UseDeduction && !deduce(S)) {
          ++Stats.SketchesRefuted;
          emit(EventKind::SketchRefuted, S->numApplies());
          continue;
        }
        if (fillSketch(S)) {
          Stats.ElapsedSeconds =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
          Stats.WallSeconds = Stats.ElapsedSeconds;
          Stats.Deduce = Engine.stats();
          if (Bus && Bus->wants(EventKind::EngineFinished)) {
            Event E(EventKind::EngineFinished, Ex->Fingerprint, 1);
            E.Stats = std::make_shared<const SynthesisStats>(Stats);
            Bus->publish(std::move(E));
          }
          return {Solution, Stats};
        }
      }
    }

    // Lines 16-18: refine the leftmost table hole with every component.
    if (H->numApplies() < Cfg.MaxComponents && H->numTblHoles() > 0) {
      for (const TableTransformer *X : Lib.TableTransformers) {
        HypPtr Refined =
            H->replaceLeftmostTblHole(Hypothesis::applyWithHoles(X));
        size_t Size = Refined->numApplies();
        if (Size <= Cfg.MaxComponents)
          Worklists[Size].emplace(costOf(Refined), std::move(Refined));
      }
    }
  }

  Stats.TimedOut = TimedOut;
  Stats.ElapsedSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
  Stats.WallSeconds = Stats.ElapsedSeconds;
  Stats.Deduce = Engine.stats();
  if (Bus && Bus->wants(EventKind::EngineFinished)) {
    Event E(EventKind::EngineFinished, Ex->Fingerprint, 0);
    E.Stats = std::make_shared<const SynthesisStats>(Stats);
    Bus->publish(std::move(E));
  }
  return {nullptr, Stats};
}

} // namespace

Synthesizer::Synthesizer(ComponentLibrary Lib, SynthesisConfig Cfg)
    : Lib(std::move(Lib)), Cfg(Cfg) {}

SynthesisResult Synthesizer::synthesize(const std::vector<Table> &Inputs,
                                        const Table &Output) {
  return synthesize(ExampleContext::make(Inputs, Output));
}

SynthesisResult
Synthesizer::synthesize(std::shared_ptr<const ExampleContext> Ex) {
  SearchContext Ctx(Lib, Cfg, std::move(Ex));
  return Ctx.run();
}
