//===- bench/bench_service.cpp - SynthService overhead benchmark --------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the two serving-layer costs perfbench cannot express (its
// serve and cluster workloads cover latency, throughput, cache hits and
// sharding):
//
//  1. event-bus overhead on cold solves: no bus, a bus with no
//     subscriber, and a bus with an everything-subscriber;
//  2. durable warm state: one service lifetime solves the workload cold
//     and checkpoints; a restarted one answers it from the restored
//     ResultCache.
//
//   ./bench_service [unique] [timeout_ms]
//     unique     distinct problems in the workload        (default 20)
//     timeout_ms engine budget per solve                  (default 10000)
//
//===----------------------------------------------------------------------===//

#include "bus/EventBus.h"
#include "interp/Components.h"
#include "service/SynthService.h"

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace morpheus;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The ApiTest filter/select problem with every age shifted by \p Offset:
/// same program shape and solve cost for each variant, but distinct
/// tables, so each variant fingerprints (and solves) independently.
Problem variantProblem(unsigned Offset) {
  double O = double(Offset);
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num},
                        {"GPA", CellType::Num}},
                       {{num(1), str("Alice"), num(8 + O), num(4.0)},
                        {num(2), str("Bob"), num(18 + O), num(3.2)},
                        {num(3), str("Tom"), num(12 + O), num(3.0)}});
  Table Out = makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                        {{str("Bob"), num(18 + O)}, {str("Tom"), num(12 + O)}});
  Problem P = Problem::fromTables({In}, Out);
  P.Name = "variant" + std::to_string(Offset);
  return P;
}

} // namespace

int main(int argc, char **argv) {
  size_t Unique = argc > 1 ? size_t(std::atoi(argv[1])) : 20;
  int TimeoutMs = argc > 2 ? std::atoi(argv[2]) : 10000;
  if (Unique == 0) {
    std::fprintf(stderr, "usage: bench_service [unique] [timeout_ms]\n");
    return 2;
  }

  EngineOptions Opts;
  Opts.timeout(std::chrono::milliseconds(TimeoutMs));

  std::vector<Problem> Problems;
  Problems.reserve(Unique);
  for (size_t U = 0; U != Unique; ++U)
    Problems.push_back(variantProblem(unsigned(U)));

  std::printf("bench_service: %zu unique problem(s), timeout %d ms\n",
              Unique, TimeoutMs);

  // ------------------------------------------------- 1. event-bus overhead
  // Three arms over identical cold solves, interleaved so machine drift
  // hits all arms equally: no bus at all, a bus with zero subscribers
  // (every publish site short-circuits on one relaxed mask load — the
  // configuration production hot paths run in when nobody is listening;
  // target < 2% overhead), and a bus with an everything-subscriber (the
  // full publish -> ring -> drain -> callback pipeline).
  {
    std::shared_ptr<EventBus> IdleBus = EventBus::create();
    std::shared_ptr<EventBus> BusySub = EventBus::create();
    std::atomic<uint64_t> EventsSeen{0};
    Subscription Sub;
    Sub.Name = "bench-counter";
    Sub.OnBatch = [&](const std::vector<Event> &Batch) {
      EventsSeen.fetch_add(Batch.size(), std::memory_order_relaxed);
    };
    BusySub->subscribe(Sub);

    Engine Plain = Engine::standard(Opts);
    Engine NoSub = Engine::standard(EngineOptions(Opts).eventBus(IdleBus));
    Engine WithSub = Engine::standard(EngineOptions(Opts).eventBus(BusySub));

    constexpr int Passes = 3;
    double PlainSec = 0, NoSubSec = 0, WithSubSec = 0;
    size_t Solves = 0;
    for (int Pass = 0; Pass != Passes; ++Pass)
      for (const Problem &P : Problems) {
        ++Solves;
        auto T0 = Clock::now();
        (void)Plain.solve(P);
        PlainSec += secondsSince(T0);
        T0 = Clock::now();
        (void)NoSub.solve(P);
        NoSubSec += secondsSince(T0);
        T0 = Clock::now();
        (void)WithSub.solve(P);
        WithSubSec += secondsSince(T0);
      }
    BusySub->flush();
    std::printf("\nevent-bus overhead (%zu cold solves per arm):\n"
                "  no bus            %7.2f ms/req\n"
                "  bus, 0 subscribers%7.2f ms/req  (%+.2f%%; < 2%% wanted)\n"
                "  bus, subscriber   %7.2f ms/req  (%+.2f%%; %llu events "
                "delivered)\n",
                Solves, 1e3 * PlainSec / double(Solves),
                1e3 * NoSubSec / double(Solves),
                100.0 * (NoSubSec / PlainSec - 1.0),
                1e3 * WithSubSec / double(Solves),
                100.0 * (WithSubSec / PlainSec - 1.0),
                (unsigned long long)EventsSeen.load());
  }

  // ------------------------- 2. durable warm state: cold vs warm restart
  // Two service lifetimes over the same --state-dir: the first solves the
  // workload cold and checkpoints on shutdown; the second boots from the
  // published state files and must answer the identical workload from the
  // restored cache without running the engine at all.
  {
    std::string Dir = "bench_service.state";
    ::mkdir(Dir.c_str(), 0777);
    std::remove((Dir + "/results.mstate").c_str());
    Engine PE = Engine::standard(EngineOptions(Opts).stateDir(Dir));

    double ColdSec = 0, WarmSec = 0;
    size_t ColdSolved = 0, WarmSolved = 0;
    uint64_t ColdChecks = 0;
    WarmStateStats Loaded;
    uint64_t WarmHits = 0;
    {
      SynthService Svc(PE,
                       ServiceOptions().workers(1).cacheCapacity(Unique * 2));
      auto T0 = Clock::now();
      for (const Problem &P : Problems) {
        const Solution &S = Svc.submit(P).get();
        ColdSolved += bool(S);
        ColdChecks += S.Stats.Deduce.SolverChecks;
      }
      ColdSec = secondsSince(T0);
    } // ~SynthService publishes the final checkpoint
    {
      SynthService Svc(PE,
                       ServiceOptions().workers(1).cacheCapacity(Unique * 2));
      auto T0 = Clock::now();
      for (const Problem &P : Problems) {
        const Solution &S = Svc.submit(P).get();
        WarmSolved += bool(S);
      }
      WarmSec = secondsSince(T0);
      ServiceStats S = Svc.stats();
      Loaded = S.Warm;
      WarmHits = S.Cache.Hits;
    }
    std::printf("\ndurable warm state (state dir, restart between passes):\n"
                "  cold process %8.2f ms total, %zu solved, %llu Z3 checks "
                "run\n"
                "  warm restart %8.2f ms total, %zu solved, %llu cache hits "
                "(0 Z3 checks run)\n"
                "  restored: %llu results\n",
                1e3 * ColdSec, ColdSolved, (unsigned long long)ColdChecks,
                1e3 * WarmSec, WarmSolved, (unsigned long long)WarmHits,
                (unsigned long long)Loaded.ResultsLoaded);
  }

  return 0;
}
