//===- perfbench/runner.cpp - End-to-end benchmark runner -------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program behind perfbench/run.py. It replays one seeded workload
/// against morpheus_core through the public APIs and prints one JSON line:
///
///   perfbench_runner --tasks perfbench/tasks.json --workload oneshot
///                    --seed 1 --seconds 10 --trace 0
///
/// Workloads (task lists come from calibrate.py's tasks.json):
///  - oneshot / search: one client calling Engine::solve directly, in
///    seeded shuffled passes over easy / medium tasks;
///  - serve: a SynthService (workers = nproc/2) fed by one generator with
///    a window of 2x workers, the tidy tasks calibrated at <= 100 ms plus
///    1/3 seeded repeats;
///  - cluster: the same traffic through a ClusterClient to nproc/2
///    loopback WorkerNodes with one service worker each.
///
/// Every run is made of whole rounds (one pass, or one traffic schedule
/// against a fresh service / cluster built untimed between rounds), so
/// the request mix of a run does not depend on where the clock stops.
/// Latency percentiles pool every request of the run; throughput and CPU
/// per request count only the timed span of each round; peak RSS is the
/// median over rounds of each round's VmHWM; setup_s runs from main()
/// to the first timed request, warm-up solves included.
///
/// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
/// untraced for half the time, then traced (an EventBus with the Block
/// policy on every engine, a span collector owned by this file) for the
/// other half on the same seed, so both phases replay the same rounds of
/// traffic and tracing is all that differs. It reports per-layer metrics:
/// counters from the traced engines' EngineFinished snapshots and the
/// service / cluster / worker stats, self times from the collected spans,
/// and direct timings of public calls (ExampleContext::make,
/// DeductionEngine, evaluate).
///
/// --setup-only stops after set-up and prints {"setup_s": ...}.
/// --calibrate solves every task of both suites once and prints one JSON
/// line per task (calibrate.py drives it).
///
//===----------------------------------------------------------------------===//

#include "bus/EventBus.h"
#include "cluster/ClusterClient.h"
#include "cluster/WorkerNode.h"
#include "interp/Components.h"
#include "io/Json.h"
#include "io/ProgramIO.h"
#include "service/SynthService.h"
#include "smt/Deduce.h"
#include "spec/Abstraction.h"
#include "suite/Runner.h"
#include "suite/Task.h"
#include "support/Simd.h"
#include "support/Sync.h"

#include <z3.h>

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <type_traits>

using namespace morpheus;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Process user + system CPU seconds, all threads.
double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return double(T.tv_sec) + 1e-6 * T.tv_usec; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so a
/// later peakRssMb() covers only what ran in between. It first hands the
/// pages of freed heap blocks back to the kernel: how many of those glibc
/// keeps depends on where its dynamic mmap threshold has drifted, and
/// counting them made identical runs read peaks 20% apart. Where the
/// kernel refuses the reset, the peak covers the whole process instead.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

/// Linear-interpolated percentile (\p Q in [0,1]); 0 for no samples.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

// ----------------------------------------------------------------- options

struct Args {
  std::string TasksPath = "perfbench/tasks.json";
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
  bool Calibrate = false;
  size_t MaxTasks = 0; ///< 0 = every listed task (self-check shrinks it)
  std::string SpansOut;
  std::string Ids; ///< calibrate: comma-separated subset
  unsigned TimeoutMs = 5000; ///< calibrate budget
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (K == "--setup-only") {
      A.SetupOnly = true;
      continue;
    }
    if (K == "--calibrate") {
      A.Calibrate = true;
      continue;
    }
    const char *V = Next();
    if (!V) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", K.c_str());
      return false;
    }
    if (K == "--tasks")
      A.TasksPath = V;
    else if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V);
    else if (K == "--trace")
      A.Trace = std::string(V) == "1";
    else if (K == "--max-tasks")
      A.MaxTasks = size_t(std::atol(V));
    else if (K == "--spans-out")
      A.SpansOut = V;
    else if (K == "--ids")
      A.Ids = V;
    else if (K == "--timeout-ms")
      A.TimeoutMs = unsigned(std::atol(V));
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", K.c_str());
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------------ tasks

const BenchmarkTask *findTask(const std::string &Id) {
  for (const auto *Suite : {&morpheusSuite(), &sqlSuite()})
    for (const BenchmarkTask &T : *Suite)
      if (T.Id == Id)
        return &T;
  return nullptr;
}

bool isSql(const BenchmarkTask &T) { return T.Category == "SQL"; }

/// One task of a workload: the problem the program sees, plus what the
/// benchmark checks its answer against.
struct TaskSpec {
  const BenchmarkTask *Task = nullptr;
  Problem Prob;
  std::string Golden; ///< printSexp of the calibrated program
  double CalibratedMs = 0;
};

struct WorkloadSpec {
  std::vector<TaskSpec> Tasks;
  unsigned BudgetMs = 0;
};

bool loadWorkload(const Args &A, WorkloadSpec &W) {
  std::ifstream In(A.TasksPath);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", A.TasksPath.c_str());
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Err;
  std::optional<JsonValue> Doc = parseJson(SS.str(), &Err);
  const JsonValue *Ws = Doc ? Doc->find("workloads") : nullptr;
  // cluster replays serve's traffic.
  std::string Key = A.Workload == "cluster" ? "serve" : A.Workload;
  const JsonValue *Wl = Ws ? Ws->find(Key) : nullptr;
  const JsonValue *Budget = Wl ? Wl->find("budget_ms") : nullptr;
  const JsonValue *List = Wl ? Wl->find("tasks") : nullptr;
  if (!Budget || !Budget->isNumber() || !List || !List->isArray()) {
    std::fprintf(stderr, "perfbench: no workload '%s' in %s %s\n",
                 A.Workload.c_str(), A.TasksPath.c_str(), Err.c_str());
    return false;
  }
  W.BudgetMs = unsigned(Budget->Num);
  for (const JsonValue &E : List->Arr) {
    const JsonValue *Id = E.find("id"), *Sexp = E.find("sexp"),
                    *Ms = E.find("slowest_ms");
    if (!Id || !Sexp || !Ms)
      return false;
    TaskSpec T;
    T.Task = findTask(Id->Str);
    if (!T.Task) {
      std::fprintf(stderr, "perfbench: unknown task %s\n", Id->Str.c_str());
      return false;
    }
    T.Prob = toProblem(*T.Task);
    T.Golden = Sexp->Str;
    T.CalibratedMs = Ms->Num;
    W.Tasks.push_back(std::move(T));
    if (A.MaxTasks && W.Tasks.size() == A.MaxTasks)
      break;
  }
  return !W.Tasks.empty();
}

/// A tiny problem, not part of any workload, solved once per engine during
/// set-up so lazy process-wide initialisation (Z3, interner, specs) is paid
/// before the first timed request without warming any timed task.
Problem warmupProblem() {
  Table In = makeTable(
      {{"id", CellType::Num}, {"name", CellType::Str}, {"score", CellType::Num}},
      {{Value::number(1), Value::str("ann"), Value::number(3)},
       {Value::number(2), Value::str("bob"), Value::number(1)},
       {Value::number(3), Value::str("cid"), Value::number(5)},
       {Value::number(4), Value::str("dee"), Value::number(2)}});
  BenchmarkTask T = pb::task(
      "warmup", "C1", "names with score above 2", {In},
      pb::select(pb::filter(pb::in(0), "score", ">", Value::number(2)),
                 {"name"}));
  return toProblem(T);
}

// ------------------------------------------------------------------ tracing

/// The benchmark's bus subscriber. Turns the search engines' events into
/// spans as they arrive (a sketch span runs from SketchGenerated to
/// SketchRefuted or HoleFillBatch; an engine span ends at EngineFinished
/// and lasts its snapshot's WallSeconds), keeps them in memory, and sums
/// the EngineFinished counter snapshots. Several buses may feed one
/// tracer (one per cluster node); spans are keyed by (bus, example
/// fingerprint), which is unique among concurrent solves because the
/// service coalesces identical problems.
class Tracer {
public:
  static constexpr uint64_t Mask = eventKindBit(EventKind::SketchGenerated) |
                                   eventKindBit(EventKind::SketchRefuted) |
                                   eventKindBit(EventKind::HoleFillBatch) |
                                   eventKindBit(EventKind::EngineFinished);
  static constexpr size_t MaxSpans = 200000;

  struct Span {
    unsigned Bus;
    bool Engine; ///< engine span, else sketch span
    uint64_t Fp, StartNs, EndNs;
  };

  /// The \p I-th traced bus (Block policy, so nothing is dropped),
  /// created on first use. Rounds reuse them: serve's service gets bus 0,
  /// cluster node N bus N.
  std::shared_ptr<EventBus> bus(size_t I) {
    MutexLock L(M);
    while (Buses.size() <= I) {
      EventBus::Options O;
      O.Capacity = 1 << 16;
      O.Policy = DropPolicy::Block;
      Buses.push_back(EventBus::create(O));
      unsigned Id = unsigned(Buses.size() - 1);
      Buses.back()->subscribe(
          {"perfbench-tracer", Mask, nullptr,
           [this, Id](const std::vector<Event> &B) { onBatch(Id, B); }});
    }
    return Buses[I];
  }

  struct Totals {
    SynthesisStats Stats; ///< summed EngineFinished snapshots
    uint64_t EngineRuns = 0;
    double SketchFillSec = 0, WorklistSec = 0;
    uint64_t Published = 0, Dropped = 0;
  };

  /// Flushes every bus, then snapshots the accumulated numbers.
  Totals totals() {
    std::vector<std::shared_ptr<EventBus>> Bs;
    {
      MutexLock L(M);
      Bs = Buses;
    }
    Totals T;
    for (auto &B : Bs) {
      B->flush();
      BusStats S = B->stats();
      T.Published += S.Published;
      T.Dropped += S.Dropped;
    }
    MutexLock L(M);
    T.Stats = Sum;
    T.EngineRuns = Runs;
    T.SketchFillSec = 1e-9 * double(SketchNsTotal);
    T.WorklistSec = 1e-9 * double(WorklistNsTotal);
    return T;
  }

  /// Writes the spans as JSON lines; returns the number written.
  size_t writeSpans(const std::string &Path) {
    MutexLock L(M);
    std::ofstream Out(Path);
    if (!Out)
      return 0;
    for (const Span &S : Spans)
      Out << "{\"bus\":" << S.Bus << ",\"span\":\""
          << (S.Engine ? "engine" : "sketch") << "\",\"fp\":\"" << std::hex
          << S.Fp << std::dec << "\",\"start_ns\":" << S.StartNs
          << ",\"end_ns\":" << S.EndNs << "}\n";
    return Spans.size();
  }

private:
  using Key = std::pair<unsigned, uint64_t>;

  void onBatch(unsigned Bus, const std::vector<Event> &Batch) {
    MutexLock L(M);
    for (const Event &E : Batch) {
      Key K{Bus, E.ExampleFp};
      switch (E.Kind) {
      case EventKind::SketchGenerated:
        Open[K] = E.TimeNs;
        break;
      case EventKind::SketchRefuted:
      case EventKind::HoleFillBatch: {
        auto It = Open.find(K);
        if (It == Open.end())
          break;
        SketchNs[K] += E.TimeNs - It->second;
        record({Bus, false, E.ExampleFp, It->second, E.TimeNs});
        Open.erase(It);
        break;
      }
      case EventKind::EngineFinished: {
        if (!E.Stats)
          break;
        Sum += *E.Stats;
        ++Runs;
        uint64_t Wall = uint64_t(E.Stats->WallSeconds * 1e9);
        uint64_t Sk = 0;
        if (auto It = SketchNs.find(K); It != SketchNs.end()) {
          Sk = It->second;
          SketchNs.erase(It);
        }
        SketchNsTotal += Sk;
        WorklistNsTotal += Wall > Sk ? Wall - Sk : 0;
        record({Bus, true, E.ExampleFp, E.TimeNs > Wall ? E.TimeNs - Wall : 0,
                E.TimeNs});
        break;
      }
      default:
        break;
      }
    }
  }

  void record(const Span &S) REQUIRES(M) {
    if (Spans.size() < MaxSpans)
      Spans.push_back(S);
  }

  Mutex M;
  std::map<Key, uint64_t> Open GUARDED_BY(M);
  std::map<Key, uint64_t> SketchNs GUARDED_BY(M);
  SynthesisStats Sum GUARDED_BY(M);
  uint64_t Runs GUARDED_BY(M) = 0;
  uint64_t SketchNsTotal GUARDED_BY(M) = 0;
  uint64_t WorklistNsTotal GUARDED_BY(M) = 0;
  std::vector<Span> Spans GUARDED_BY(M);
  /// Last member, so it is destroyed first: a bus's destructor drains into
  /// onBatch, which must still find every other member alive.
  std::vector<std::shared_ptr<EventBus>> Buses GUARDED_BY(M);
};

// ---------------------------------------------------------------- fixtures

enum class Kind { Direct, Serve, Cluster };

Kind kindOf(const std::string &W) {
  if (W == "serve")
    return Kind::Serve;
  if (W == "cluster")
    return Kind::Cluster;
  return Kind::Direct;
}

/// What a round's traffic runs against. Direct workloads use the engines
/// alone; serve builds a SynthService, cluster a set of loopback
/// WorkerNodes plus a ClusterClient. Fresh per round so every round
/// starts with cold caches. Client is declared after Nodes so it is
/// destroyed, and its links closed, before the workers stop.
struct Fixture {
  std::unique_ptr<SynthService> Svc;
  std::vector<std::unique_ptr<WorkerNode>> Nodes;
  std::unique_ptr<ClusterClient> Client;
  double HandshakeMs = 0;
};

struct Config {
  Kind K = Kind::Direct;
  unsigned Workers = 1; ///< service workers (serve) / nodes (cluster)
  unsigned Window = 1;  ///< requests in flight
  unsigned BudgetMs = 0;
};

EngineOptions engineOptions(const Config &C, std::shared_ptr<EventBus> Bus) {
  EngineOptions O;
  O.config(configSpec2(std::chrono::milliseconds(C.BudgetMs)));
  if (Bus)
    O.eventBus(std::move(Bus));
  return O;
}

ServiceOptions serviceOptions(unsigned Workers) {
  return ServiceOptions()
      .workers(Workers)
      .queueCapacity(1024)
      .cacheCapacity(4096)
      .checkpointInterval(std::chrono::milliseconds(0));
}

/// Builds a serve / cluster fixture; null for direct workloads.
std::unique_ptr<Fixture> makeFixture(const Config &C, Tracer *T) {
  if (C.K == Kind::Direct)
    return nullptr;
  auto F = std::make_unique<Fixture>();
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  if (C.K == Kind::Serve) {
    F->Svc = std::make_unique<SynthService>(
        Engine(Lib, engineOptions(C, T ? T->bus(0) : nullptr)),
        serviceOptions(C.Workers));
    return F;
  }
  ClusterOptions COpts;
  for (unsigned N = 0; N != C.Workers; ++N) {
    F->Nodes.push_back(std::make_unique<WorkerNode>(
        Lib, engineOptions(C, T ? T->bus(N) : nullptr), serviceOptions(1)));
    std::string Err;
    if (!F->Nodes.back()->start(&Err)) {
      std::fprintf(stderr, "perfbench: worker start failed: %s\n", Err.c_str());
      return nullptr;
    }
    COpts.Workers.push_back({"127.0.0.1", F->Nodes.back()->port()});
  }
  auto T0 = Clock::now();
  F->Client = std::make_unique<ClusterClient>(Lib, engineOptions(C, nullptr),
                                              serviceOptions(1), COpts);
  if (!F->Client->waitForWorkers(C.Workers, std::chrono::seconds(20))) {
    std::fprintf(stderr, "perfbench: cluster workers did not come up\n");
    return nullptr;
  }
  F->HandshakeMs = msBetween(T0, Clock::now());
  return F;
}

// ------------------------------------------------------------------ phases

struct Request {
  size_t Task = 0;
  double LatencyMs = 0;
  double QueueMs = 0, SolveMs = 0; ///< serve / cluster: as the service saw it
  std::string Source;              ///< "solve", "cache-hit", ...
  Solution Sol;
};

/// Service and cluster counters summed over a phase's rounds.
struct LayerCounters {
  uint64_t Submitted = 0, Hits = 0, Coalesced = 0, SolvesRun = 0;
  size_t MaxQueueDepth = 0, RefutationScopes = 0;
  uint64_t Forwarded = 0, LocalSolves = 0, Failovers = 0, FramesIn = 0;
  std::vector<uint64_t> PerWorkerForwarded;
  std::vector<double> HandshakeMs;

  void addService(const ServiceStats &S) {
    Submitted += S.Submitted;
    Hits += S.Cache.Hits;
    Coalesced += S.Cache.Coalesced;
    SolvesRun += S.SolvesRun;
    MaxQueueDepth = std::max(MaxQueueDepth, S.MaxQueueDepth);
    RefutationScopes = std::max(RefutationScopes, S.RefutationScopes);
  }
};

struct Phase {
  std::vector<Request> Reqs;
  std::vector<double> PeakRssMb; ///< per round
  double TimedSec = 0, CpuSec = 0;
  unsigned Rounds = 0;
  LayerCounters Layers;
};

/// Fisher-Yates with a plain modulo draw, so a seed gives the same order
/// with every standard library.
void shuffle(std::vector<size_t> &V, std::mt19937_64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng() % I]);
}

/// One round of serve / cluster traffic, sent in blocks of \p Window
/// requests. Tasks are ranked by calibrated cost and block B holds the
/// tasks ranked B, B + Blocks, B + 2 * Blocks, ... heaviest first, so
/// every block carries the same spread of costs and two of the slowest
/// tasks never share one. Which tasks meet in a window is thus fixed,
/// and the queue a round builds does not hinge on where a shuffle
/// happened to cluster the slow tasks. The seed orders the blocks, and
/// after every block adds repeats of tasks already sent (one per two
/// tasks in all, a third of the requests): a repeat of the block just
/// sent usually coalesces onto its in-flight solve, an older one is a
/// cache hit.
std::vector<size_t> serveTraffic(const WorkloadSpec &W, unsigned Window,
                                 std::mt19937_64 &Rng) {
  const size_t N = W.Tasks.size(), Q = std::max<size_t>(1, Window);
  const size_t Blocks = (N + Q - 1) / Q, Repeats = N / 2;
  std::vector<size_t> ByCost(N);
  for (size_t I = 0; I != N; ++I)
    ByCost[I] = I;
  std::stable_sort(ByCost.begin(), ByCost.end(), [&](size_t A, size_t B) {
    return W.Tasks[A].CalibratedMs > W.Tasks[B].CalibratedMs;
  });
  std::vector<size_t> BlockOrder(Blocks);
  for (size_t B = 0; B != Blocks; ++B)
    BlockOrder[B] = B;
  shuffle(BlockOrder, Rng);
  std::vector<size_t> Out, Sent;
  for (size_t I = 0; I != Blocks; ++I) {
    for (size_t Rank = BlockOrder[I]; Rank < N; Rank += Blocks) {
      Out.push_back(ByCost[Rank]);
      Sent.push_back(ByCost[Rank]);
    }
    for (size_t R = I * Repeats / Blocks; R != (I + 1) * Repeats / Blocks; ++R)
      Out.push_back(Sent[Rng() % Sent.size()]);
  }
  return Out;
}

/// Closed loop with a window: the generator keeps \p Window requests in
/// flight and polls every outstanding handle, so each request is timed
/// to its own completion (within one poll interval) rather than to when
/// the generator would otherwise collect it.
template <typename Handle, typename SubmitFn>
void runWindowed(const std::vector<size_t> &Traffic, unsigned Window,
                 SubmitFn Submit, std::vector<Request> &Out) {
  struct Slot {
    size_t Req;
    Handle H;
    Clock::time_point Issued;
  };
  std::vector<Slot> Inflight;
  size_t Next = 0;
  while (Next < Traffic.size() || !Inflight.empty()) {
    while (Inflight.size() < Window && Next < Traffic.size()) {
      Out.emplace_back();
      Out.back().Task = Traffic[Next];
      auto Issued = Clock::now();
      Inflight.push_back({Out.size() - 1, Submit(Traffic[Next]), Issued});
      ++Next;
    }
    bool Any = false;
    for (size_t I = 0; I < Inflight.size();) {
      if (!Inflight[I].H.waitFor(std::chrono::milliseconds(0))) {
        ++I;
        continue;
      }
      auto Now = Clock::now();
      Request &R = Out[Inflight[I].Req];
      R.LatencyMs = msBetween(Inflight[I].Issued, Now);
      R.Sol = Inflight[I].H.get();
      R.QueueMs = Inflight[I].H.queueMs();
      R.SolveMs = Inflight[I].H.solveMs();
      if constexpr (std::is_same_v<Handle, JobHandle>)
        R.Source = std::string(resultSourceName(Inflight[I].H.source()));
      else
        R.Source = Inflight[I].H.source();
      if (I + 1 != Inflight.size())
        Inflight[I] = std::move(Inflight.back());
      Inflight.pop_back();
      Any = true;
    }
    if (!Any)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

struct Engines {
  Engine Tidy, Sql;
  const Engine &forTask(const TaskSpec &T) const {
    return isSql(*T.Task) ? Sql : Tidy;
  }
};

Engines makeEngines(const Config &C, std::shared_ptr<EventBus> Bus) {
  return {Engine(StandardComponents::get().tidyDplyr(), engineOptions(C, Bus)),
          Engine(StandardComponents::get().sqlRelevant(), engineOptions(C, Bus))};
}

/// Runs whole rounds until \p Seconds of timed work and \p MinRequests
/// requests have accumulated (enough that p90 has ten samples beyond it).
/// \p First (built during set-up) serves round 0; later rounds build
/// their fixture untimed. Only the span from the first request of a round
/// to the completion of its last counts as timed, for wall and CPU alike.
bool runPhase(const Config &C, const WorkloadSpec &W, const Engines &E,
              uint64_t Seed, double Seconds, size_t MinRequests,
              std::unique_ptr<Fixture> First, Tracer *T, Phase &P) {
  const size_t N = W.Tasks.size();
  while (P.Rounds == 0 || P.TimedSec < Seconds ||
         P.Reqs.size() < MinRequests) {
    std::mt19937_64 Rng(Seed * 1000003u + P.Rounds);
    std::unique_ptr<Fixture> F =
        P.Rounds == 0 ? std::move(First) : makeFixture(C, T);
    if (C.K != Kind::Direct && !F)
      return false;
    std::vector<size_t> Traffic;
    if (C.K == Kind::Direct) {
      Traffic.resize(N);
      for (size_t I = 0; I != N; ++I)
        Traffic[I] = I;
      shuffle(Traffic, Rng);
    } else {
      Traffic = serveTraffic(W, C.Window, Rng);
    }

    resetPeakRss();
    double Cpu0 = cpuSeconds();
    auto T0 = Clock::now();
    if (C.K == Kind::Direct) {
      for (size_t Ti : Traffic) {
        const TaskSpec &TS = W.Tasks[Ti];
        auto S0 = Clock::now();
        Solution S = E.forTask(TS).solve(TS.Prob);
        Request R;
        R.Task = Ti;
        R.LatencyMs = msBetween(S0, Clock::now());
        R.Source = "solve";
        R.Sol = std::move(S);
        P.Reqs.push_back(std::move(R));
      }
    } else if (C.K == Kind::Serve) {
      runWindowed<JobHandle>(
          Traffic, C.Window,
          [&](size_t Ti) { return F->Svc->submit(W.Tasks[Ti].Prob); }, P.Reqs);
    } else {
      runWindowed<ClusterJob>(
          Traffic, C.Window,
          [&](size_t Ti) { return F->Client->submit(W.Tasks[Ti].Prob); },
          P.Reqs);
    }
    P.TimedSec += msBetween(T0, Clock::now()) / 1e3;
    P.CpuSec += cpuSeconds() - Cpu0;
    P.PeakRssMb.push_back(peakRssMb());
    ++P.Rounds;

    if (F && F->Svc)
      P.Layers.addService(F->Svc->stats());
    if (F && F->Client) {
      P.Layers.HandshakeMs.push_back(F->HandshakeMs);
      ClusterStats CS = F->Client->stats();
      P.Layers.Forwarded += CS.Forwarded;
      P.Layers.LocalSolves += CS.LocalSolves;
      P.Layers.Failovers += CS.Failovers;
      P.Layers.PerWorkerForwarded.resize(CS.PerWorkerForwarded.size());
      for (size_t I = 0; I != CS.PerWorkerForwarded.size(); ++I)
        P.Layers.PerWorkerForwarded[I] += CS.PerWorkerForwarded[I];
      for (auto &Node : F->Nodes) {
        P.Layers.addService(Node->service().stats());
        P.Layers.FramesIn += Node->stats().FramesIn;
      }
    }
  }
  return true;
}

// ------------------------------------------------------------ verification

struct Verdicts {
  uint64_t Failed = 0;
  std::vector<double> EvalMs;
};

/// A result counts only if it solved, its program prints to the golden
/// s-expression, and evaluating it reproduces the expected table.
void verify(const WorkloadSpec &W, const Phase &P, Verdicts &V) {
  for (const Request &R : P.Reqs) {
    const TaskSpec &T = W.Tasks[R.Task];
    const Solution &S = R.Sol;
    std::string Why;
    if (S.Result != Outcome::Solved || !S.Program) {
      Why = std::string(outcomeName(S.Result));
    } else if (std::string Got = printSexp(S.Program); Got != T.Golden) {
      Why = "program " + Got;
    } else {
      auto T0 = Clock::now();
      std::optional<Table> Out = S.Program->evaluate(T.Prob.Inputs);
      V.EvalMs.push_back(msBetween(T0, Clock::now()));
      bool Same = Out && (T.Prob.OrderedCompare
                              ? Out->equalsOrdered(T.Prob.Output)
                              : Out->equalsUnordered(T.Prob.Output));
      if (!Same)
        Why = "output mismatch";
    }
    if (!Why.empty()) {
      if (V.Failed < 5)
        std::fprintf(stderr, "perfbench: %s failed: %s\n", T.Task->Id.c_str(),
                     Why.c_str());
      ++V.Failed;
    }
  }
}

// ----------------------------------------------------------------- output

struct Metrics {
  JsonValue Obj = JsonValue::object();
  void add(const std::string &Name, double Value, const std::string &Unit) {
    JsonValue M = JsonValue::object();
    M.set("value", JsonValue::number(Value));
    M.set("unit", JsonValue::string(Unit));
    Obj.set(Name, std::move(M));
  }
};

std::vector<double> latencies(const Phase &P) {
  std::vector<double> L;
  for (const Request &R : P.Reqs)
    L.push_back(R.LatencyMs);
  return L;
}

double cpuMsPerReq(const Phase &P) {
  return ratio(1e3 * P.CpuSec, double(P.Reqs.size()));
}

/// Direct timings of public calls, once per distinct task: building the
/// ExampleContext, and a DeductionEngine's construction plus its first
/// deduce on a one-component hypothesis.
void timeFixedCosts(const WorkloadSpec &W, double &ExampleCtxMs,
                    double &EngineSetupMs) {
  std::vector<double> Ctx, Setup;
  for (const TaskSpec &T : W.Tasks) {
    auto T0 = Clock::now();
    std::shared_ptr<const ExampleContext> Ex =
        ExampleContext::make(T.Prob.Inputs, T.Prob.Output);
    Ctx.push_back(msBetween(T0, Clock::now()));
    ComponentLibrary Lib = libraryForTask(*T.Task);
    HypPtr H = Hypothesis::applyWithHoles(Lib.TableTransformers.front());
    auto T1 = Clock::now();
    {
      DeductionEngine D(Ex);
      D.deduce(H, SpecLevel::Spec2, true);
    }
    Setup.push_back(msBetween(T1, Clock::now()));
  }
  ExampleCtxMs = percentile(Ctx, 0.5);
  EngineSetupMs = percentile(Setup, 0.5);
}

/// Every per-layer metric. Counters are per engine run ("solve") or per
/// request; a layer the workload does not exercise (service and cluster
/// on oneshot / search, cluster on serve) reads 0.
void addLayerMetrics(Metrics &Out, const Config &C, const WorkloadSpec &W,
                     const Phase &Untraced, const Phase &Traced,
                     const Tracer::Totals &T, const Verdicts &V,
                     double SuiteBuildMs) {
  const double Reqs = double(Traced.Reqs.size());
  const double Runs = double(T.EngineRuns);
  const SynthesisStats &S = T.Stats;
  const DeduceStats &D = S.Deduce;
  const std::string PerSolve = "count/solve", PerReq = "count/req";

  Out.add("suite.build_ms", SuiteBuildMs, "ms");
  Out.add("cluster.handshake_ms", percentile(Traced.Layers.HandshakeMs, 0.5),
          "ms");
  double CtxMs = 0, SetupMs = 0;
  timeFixedCosts(W, CtxMs, SetupMs);
  Out.add("spec.example_context_ms", CtxMs, "ms");
  Out.add("smt.engine_setup_ms", SetupMs, "ms");
  Out.add("smt.template_compiles", ratio(double(D.TemplateCompiles), Runs),
          PerSolve);
  Out.add("smt.deduce_calls", ratio(double(D.Calls), Runs), PerSolve);
  Out.add("smt.fastpath_rejects", ratio(double(D.FastPathRejections), Runs),
          PerSolve);
  Out.add("smt.verdict_cache_hits", ratio(double(D.CacheHits), Runs), PerSolve);
  Out.add("smt.z3_checks", ratio(double(D.SolverChecks), Runs), PerSolve);
  Out.add("smt.z3_reach_ratio", ratio(double(D.SolverChecks), double(D.Calls)),
          "ratio");
  Out.add("smt.z3_s", ratio(D.SolverSeconds, Runs), "s/solve");
  Out.add("smt.z3_share", ratio(D.SolverSeconds, S.ElapsedSeconds), "ratio");
  Out.add("smt.session_hits", ratio(double(D.SessionHits), Runs), PerSolve);
  Out.add("smt.store_hits", ratio(double(D.StoreHits), Runs), PerSolve);
  Out.add("smt.pushes", ratio(double(D.SolverPushes), Runs), PerSolve);

  Out.add("synth.hypotheses", ratio(double(S.HypothesesExplored), Runs),
          PerSolve);
  Out.add("synth.sketches", ratio(double(S.SketchesGenerated), Runs), PerSolve);
  Out.add("synth.sketches_refuted", ratio(double(S.SketchesRefuted), Runs),
          PerSolve);
  Out.add("synth.fills_tried", ratio(double(S.PartialFillsTried), Runs),
          PerSolve);
  Out.add("synth.fills_pruned", ratio(double(S.PartialFillsPruned), Runs),
          PerSolve);
  Out.add("synth.prune_ratio",
          ratio(double(S.PartialFillsPruned), double(S.PartialFillsTried)),
          "ratio");
  Out.add("synth.candidates", ratio(double(S.CandidatesChecked), Runs),
          PerSolve);
  Out.add("synth.candidates_per_s",
          ratio(double(S.CandidatesChecked), S.ElapsedSeconds), "1/s");
  Out.add("synth.sketch_fill_s", ratio(T.SketchFillSec, Runs), "s/solve");
  Out.add("synth.worklist_s", ratio(T.WorklistSec, Runs), "s/solve");

  Out.add("interp.verify_eval_ms", percentile(V.EvalMs, 0.5), "ms");

  // Service layer: the serve service, or the cluster's worker services.
  const LayerCounters &L = Traced.Layers;
  std::vector<double> Queue, Solve, Wire, SoloRatio;
  for (const Request &R : Traced.Reqs) {
    if (C.K == Kind::Direct)
      break;
    Queue.push_back(R.QueueMs);
    if (R.Source == "solve") {
      Solve.push_back(R.SolveMs);
      SoloRatio.push_back(ratio(R.SolveMs, W.Tasks[R.Task].CalibratedMs));
    }
    if (C.K == Kind::Cluster)
      Wire.push_back(R.LatencyMs - R.QueueMs - R.SolveMs);
  }
  Out.add("service.queue_ms_p50", percentile(Queue, 0.5), "ms");
  Out.add("service.queue_ms_p90", percentile(Queue, 0.9), "ms");
  Out.add("service.solve_ms_p50", percentile(Solve, 0.5), "ms");
  Out.add("service.solve_ms_p90", percentile(Solve, 0.9), "ms");
  Out.add("service.solve_vs_solo", percentile(SoloRatio, 0.5), "ratio");
  Out.add("service.hit_ratio", ratio(double(L.Hits), double(L.Submitted)),
          "ratio");
  Out.add("service.coalesced", ratio(double(L.Coalesced), Reqs), PerReq);
  Out.add("service.solves_run", ratio(double(L.SolvesRun), Reqs), PerReq);
  Out.add("service.max_queue_depth", double(L.MaxQueueDepth), "count");
  Out.add("service.refutation_scopes", double(L.RefutationScopes), "count");

  uint64_t MaxFwd = 0, SumFwd = 0;
  for (uint64_t F : L.PerWorkerForwarded) {
    MaxFwd = std::max(MaxFwd, F);
    SumFwd += F;
  }
  Out.add("cluster.wire_ms_p50", percentile(Wire, 0.5), "ms");
  Out.add("cluster.forwarded", ratio(double(L.Forwarded), Reqs), PerReq);
  Out.add("cluster.local_solves", ratio(double(L.LocalSolves), Reqs), PerReq);
  Out.add("cluster.failovers", double(L.Failovers), "count");
  Out.add("cluster.shard_skew",
          ratio(double(MaxFwd) * double(L.PerWorkerForwarded.size()),
                double(SumFwd)),
          "ratio");
  Out.add("net.frames_in", ratio(double(L.FramesIn), Reqs), PerReq);

  Out.add("bus.events", ratio(double(T.Published), Reqs), PerReq);
  Out.add("bus.dropped", double(T.Dropped), "count");
  Out.add("bus.trace_overhead",
          100.0 * (ratio(cpuMsPerReq(Traced), cpuMsPerReq(Untraced)) - 1.0),
          "%");
}

// -------------------------------------------------------------- calibrate

/// Solves every task of both suites (or the --ids subset) once, after an
/// untimed warm-up solve per library, and prints one JSON line per task.
int calibrate(const Args &A) {
  Config C;
  C.BudgetMs = A.TimeoutMs;
  Engines E = makeEngines(C, nullptr);
  E.Tidy.solve(warmupProblem());
  E.Sql.solve(warmupProblem());
  std::vector<std::string> Only;
  for (std::stringstream SS(A.Ids); SS.good();) {
    std::string Id;
    std::getline(SS, Id, ',');
    if (!Id.empty())
      Only.push_back(Id);
  }
  for (const auto *Suite : {&morpheusSuite(), &sqlSuite()})
    for (const BenchmarkTask &T : *Suite) {
      if (!Only.empty() &&
          std::find(Only.begin(), Only.end(), T.Id) == Only.end())
        continue;
      TaskSpec TS{&T, toProblem(T), "", 0};
      Solution S = E.forTask(TS).solve(TS.Prob);
      JsonValue Row = JsonValue::object();
      Row.set("id", JsonValue::string(T.Id));
      Row.set("suite", JsonValue::string(isSql(T) ? "sql" : "morpheus"));
      Row.set("outcome", JsonValue::string(std::string(outcomeName(S.Result))));
      Row.set("ms", JsonValue::number(1e3 * S.Seconds));
      Row.set("z3_checks", JsonValue::number(double(S.Stats.Deduce.SolverChecks)));
      Row.set("sexp", JsonValue::string(S.Program ? printSexp(S.Program) : ""));
      std::cout << Row.dump() << std::endl;
    }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const auto MainStart = Clock::now();
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;

  auto SuiteT0 = Clock::now();
  morpheusSuite();
  sqlSuite();
  const double SuiteBuildMs = msBetween(SuiteT0, Clock::now());

  if (A.Calibrate)
    return calibrate(A);

  Config C;
  C.K = kindOf(A.Workload);
  if (A.Workload != "oneshot" && A.Workload != "search" &&
      C.K == Kind::Direct) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  WorkloadSpec W;
  if (!loadWorkload(A, W))
    return 2;
  unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  C.BudgetMs = W.BudgetMs;
  C.Workers = C.K == Kind::Direct ? 1 : std::max(1u, NProc / 2);
  C.Window = C.K == Kind::Direct ? 1 : 2 * C.Workers;

  // Set-up: engines, one warm-up solve per engine, the first fixture.
  Engines E = makeEngines(C, nullptr);
  E.Tidy.solve(warmupProblem());
  E.Sql.solve(warmupProblem());
  std::unique_ptr<Fixture> First = makeFixture(C, nullptr);
  if (C.K != Kind::Direct && !First)
    return 1;
  const double SetupSec = msBetween(MainStart, Clock::now()) / 1e3;
  if (A.SetupOnly) {
    std::printf("{\"setup_s\": %.9g}\n", SetupSec);
    return 0;
  }

  Phase Untraced, Traced;
  const double UntracedSec = A.Trace ? A.Seconds / 2 : A.Seconds;
  const size_t MinRequests = A.Trace || A.MaxTasks ? 0 : 100;
  if (!runPhase(C, W, E, A.Seed, UntracedSec, MinRequests, std::move(First),
                nullptr, Untraced))
    return 1;

  Metrics Out;
  Verdicts V;
  verify(W, Untraced, V);
  uint64_t Attempted = Untraced.Reqs.size();
  if (!A.Trace) {
    std::vector<double> Lat = latencies(Untraced);
    Out.add("latency_p50_ms", percentile(Lat, 0.5), "ms");
    Out.add("latency_p90_ms", percentile(Lat, 0.9), "ms");
    Out.add("throughput_rps", ratio(double(Lat.size()), Untraced.TimedSec),
            "1/s");
    Out.add("cpu_ms_per_req", cpuMsPerReq(Untraced), "ms");
    Out.add("peak_rss_mb", percentile(Untraced.PeakRssMb, 0.5), "MB");
    Out.add("setup_s", SetupSec, "s");
  } else {
    Tracer T;
    Engines TE = makeEngines(C, C.K == Kind::Direct ? T.bus(0) : nullptr);
    std::unique_ptr<Fixture> F = makeFixture(C, &T);
    if ((C.K != Kind::Direct && !F) ||
        !runPhase(C, W, TE, A.Seed, A.Seconds / 2, 0, std::move(F), &T,
                  Traced))
      return 1;
    Tracer::Totals Tot = T.totals();
    Verdicts TV;
    verify(W, Traced, TV);
    V.Failed += TV.Failed;
    Attempted += Traced.Reqs.size();
    addLayerMetrics(Out, C, W, Untraced, Traced, Tot, TV, SuiteBuildMs);
    if (!A.SpansOut.empty())
      std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n",
                   T.writeSpans(A.SpansOut), A.SpansOut.c_str());
  }

  JsonValue Meta = JsonValue::object();
  Meta.set("workload", JsonValue::string(A.Workload));
  Meta.set("seed", JsonValue::number(double(A.Seed)));
  Meta.set("nproc", JsonValue::number(NProc));
  Meta.set("cpu_model", JsonValue::string(cpuModel()));
  Meta.set("simd", JsonValue::string(
                       std::string(simd::simdLevelName(simd::activeSimdLevel()))));
  Meta.set("z3_version", JsonValue::string(Z3_get_full_version()));
  Meta.set("budget_ms", JsonValue::number(C.BudgetMs));
  Meta.set("window", JsonValue::number(C.Window));
  Meta.set("workers", JsonValue::number(C.Workers));
  Meta.set("tasks", JsonValue::number(double(W.Tasks.size())));
  Meta.set("rounds", JsonValue::number(Untraced.Rounds + Traced.Rounds));
  Meta.set("timed_s", JsonValue::number(Untraced.TimedSec + Traced.TimedSec));

  JsonValue Result = JsonValue::object();
  Result.set("correct", JsonValue::boolean(V.Failed == 0));
  Result.set("attempted", JsonValue::number(double(Attempted)));
  Result.set("failed", JsonValue::number(double(V.Failed)));
  Result.set("metrics", std::move(Out.Obj));
  Result.set("meta", std::move(Meta));
  std::cout << Result.dump() << std::endl;
  return 0;
}
