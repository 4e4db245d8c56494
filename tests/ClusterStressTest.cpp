//===- tests/ClusterStressTest.cpp - Concurrency stress on the cluster --------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-safety stress for the cluster tier, written to run under
/// ThreadSanitizer (the tsan ctest label selects it in the sanitizer CI
/// job): many submitter threads hammer one ClusterClient — whose public
/// surface is documented thread-safe — while stats() readers poll and a
/// chaos thread kills and restarts a worker mid-traffic. The interesting
/// interleavings are submit vs. the loop thread's routing, completion
/// broadcast vs. get()/waitFor, failover vs. result delivery, and
/// shutdown vs. everything.
///
/// Assertions are deliberately coarse — every job completes, trivially
/// solvable jobs solve, counters stay consistent — because the payload
/// here is what TSan observes, not what gtest compares.
///
//===----------------------------------------------------------------------===//

#include "cluster/ClusterClient.h"

#include "bus/EventBus.h"
#include "cluster/WorkerNode.h"
#include "interp/Components.h"
#include "table/Table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace morpheus;

namespace {

EngineOptions quickOptions() {
  return EngineOptions().timeout(std::chrono::seconds(30));
}

/// Identity problem (~1 ms solve); \p Tag varies the fingerprint, so a
/// small tag range yields deliberate repeats that exercise the worker
/// caches and coalescing under concurrency.
Problem idProblem(unsigned Tag) {
  Table T = makeTable({{"v", CellType::Num}},
                      {{num(double(Tag))}, {num(double(Tag) + 0.5)}});
  Problem P = Problem::fromTables({T}, T);
  P.Name = "stress" + std::to_string(Tag);
  return P;
}

TEST(ClusterStress, ConcurrentSubmittersSurviveWorkerChurn) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();

  WorkerNode Stable(Lib, quickOptions(), ServiceOptions().workers(1));
  std::string Err;
  ASSERT_TRUE(Stable.start(&Err)) << Err;

  auto Victim = std::make_unique<WorkerNode>(Lib, quickOptions(),
                                             ServiceOptions().workers(1));
  ASSERT_TRUE(Victim->start(&Err)) << Err;
  const uint16_t VictimPort = Victim->port();

  ClusterOptions COpts;
  COpts.Workers.push_back({"127.0.0.1", Stable.port()});
  COpts.Workers.push_back({"127.0.0.1", VictimPort});
  COpts.ReconnectBackoffMs = 20; // churn faster than the default backoff

  ClusterClient C(Lib, quickOptions(), ServiceOptions().workers(2), COpts);
  ASSERT_TRUE(C.waitForWorkers(2, std::chrono::seconds(10)));

  constexpr int Submitters = 4;
  constexpr int JobsEach = 8;
  std::atomic<int> SolvedCount{0};
  std::atomic<bool> Done{false};

  std::vector<std::thread> Threads;
  for (int T = 0; T != Submitters; ++T) {
    Threads.emplace_back([&, T] {
      for (int I = 0; I != JobsEach; ++I) {
        // 16 distinct fingerprints over 32 submissions: half the load
        // repeats, hitting worker caches / coalescing concurrently.
        ClusterJob J = C.submit(idProblem(unsigned(T * JobsEach + I) % 16));
        ASSERT_TRUE(J.waitFor(std::chrono::seconds(120))) << "job lost";
        if (J.get())
          SolvedCount.fetch_add(1, std::memory_order_relaxed);
        // Exercise the metadata getters concurrently with completions.
        (void)J.source();
        (void)J.queueMs();
        (void)J.solveMs();
        (void)J.worker();
        (void)J.attempts();
      }
    });
  }

  // Stats reader: races against the loop thread's counter updates.
  Threads.emplace_back([&] {
    uint64_t LastSubmitted = 0;
    while (!Done.load(std::memory_order_acquire)) {
      ClusterStats S = C.stats();
      EXPECT_GE(S.Submitted, LastSubmitted) << "counter went backwards";
      LastSubmitted = S.Submitted;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Chaos: kill the victim worker mid-traffic, let failover happen,
  // bring a fresh worker up on the same port, repeat.
  Threads.emplace_back([&] {
    for (int Round = 0; Round != 3 && !Done.load(std::memory_order_acquire);
         ++Round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      Victim->stop();
      Victim.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      WorkerNode::Options WOpts;
      WOpts.Listen = {"127.0.0.1", VictimPort};
      auto Rebound = std::make_unique<WorkerNode>(
          Lib, quickOptions(), ServiceOptions().workers(1), WOpts);
      std::string E2;
      if (Rebound->start(&E2))
        Victim = std::move(Rebound); // else: port still in TIME_WAIT; the
                                     // cluster keeps running one-armed
    }
  });

  for (size_t T = 0; T != size_t(Submitters); ++T)
    Threads[T].join();
  Done.store(true, std::memory_order_release);
  for (size_t T = size_t(Submitters); T != Threads.size(); ++T)
    Threads[T].join();

  // Identity problems cannot fail; churn may only move them around.
  EXPECT_EQ(SolvedCount.load(), Submitters * JobsEach);

  ClusterStats S = C.stats();
  EXPECT_EQ(S.Submitted, uint64_t(Submitters * JobsEach));
  EXPECT_EQ(S.RemoteCompleted + S.LocalSolves,
            uint64_t(Submitters * JobsEach));

  Stable.stop();
  if (Victim)
    Victim->stop();
}

TEST(ClusterStress, SubmitRacingShutdownNeverHangsOrLeaks) {
  // Destroy the client while submitters are still pushing: every handle
  // must still complete (solved or cancelled-by-shutdown), and TSan must
  // see clean synchronization between ~ClusterClient and submit().
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  WorkerNode W(Lib, quickOptions(), ServiceOptions().workers(1));
  std::string Err;
  ASSERT_TRUE(W.start(&Err)) << Err;

  ClusterOptions COpts;
  COpts.Workers.push_back({"127.0.0.1", W.port()});

  std::vector<ClusterJob> Handles;
  Mutex HandlesM;
  {
    ClusterClient C(Lib, quickOptions(), ServiceOptions().workers(1), COpts);
    ASSERT_TRUE(C.waitForWorkers(1, std::chrono::seconds(10)));
    std::vector<std::thread> Threads;
    for (int T = 0; T != 3; ++T) {
      Threads.emplace_back([&, T] {
        for (int I = 0; I != 6; ++I) {
          ClusterJob J = C.submit(idProblem(unsigned(100 + T * 6 + I)));
          MutexLock L(HandlesM);
          Handles.push_back(std::move(J));
        }
      });
    }
    for (std::thread &Th : Threads)
      Th.join();
    // ~ClusterClient runs here with all 18 jobs somewhere in flight.
  }
  for (ClusterJob &J : Handles) {
    ASSERT_TRUE(J.valid());
    // Completed by solve or by shutdown — but completed: get() returns.
    (void)J.get();
    EXPECT_FALSE(J.source().empty());
  }
  W.stop();
}

TEST(ClusterStress, LossyCallerBusNeverLosesAnswers) {
  // A caller-supplied bus is lossy by default (DropNewest): with a tiny
  // ring and a stalled subscriber most events are dropped. Observability
  // may lose events; the cluster must never lose an answer.
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  std::atomic<bool> Open{false};
  EventBus::Options BusOpts;
  BusOpts.Capacity = 2;
  BusOpts.Policy = DropPolicy::DropNewest;
  std::shared_ptr<EventBus> Bus = EventBus::create(BusOpts);
  Subscription Stalled;
  Stalled.Name = "stalled";
  Stalled.KindMask = eventKindBit(EventKind::JobSubmitted);
  Stalled.OnBatch = [&Open](const std::vector<Event> &) {
    while (!Open.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  Bus->subscribe(std::move(Stalled));

  WorkerNode W(Lib, quickOptions().eventBus(Bus), ServiceOptions().workers(1));
  std::string Err;
  ASSERT_TRUE(W.start(&Err)) << Err;
  ClusterOptions COpts;
  COpts.Workers.push_back({"127.0.0.1", W.port()});
  ClusterClient C(Lib, quickOptions(), ServiceOptions().workers(1), COpts);
  ASSERT_TRUE(C.waitForWorkers(1, std::chrono::seconds(10)));

  std::vector<ClusterJob> Jobs;
  for (unsigned I = 0; I != 6; ++I)
    Jobs.push_back(C.submit(idProblem(200 + I)));
  std::this_thread::sleep_for(std::chrono::seconds(1));
  Open.store(true, std::memory_order_release);

  int Answered = 0;
  for (const ClusterJob &J : Jobs) {
    if (!J.waitFor(std::chrono::seconds(10)))
      continue;
    ++Answered;
    EXPECT_TRUE(J.get());
  }
  EXPECT_EQ(Answered, 6) << "answers lost with the bus's dropped events";
  W.stop();
}

} // namespace
