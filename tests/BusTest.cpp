//===- tests/BusTest.cpp - Synthesis event bus ---------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the event bus itself (src/bus/EventBus.h): the
/// no-subscriber fast path, kind-mask and per-event predicate filtering,
/// batching boundaries, both drop policies with exact accounting, acked
/// flush and destructor draining, and concurrent publish stress tests
/// that CI also runs under ThreadSanitizer (ctest -L tsan). One test holds
/// what the search publishes to the contract perfbench's tracer reads;
/// ReplayRegressionTest drives the recorder/replay subscribers end to end.
///
//===----------------------------------------------------------------------===//

#include "bus/EventBus.h"
#include "suite/Runner.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>

using namespace morpheus;

namespace {

/// Counting subscriber state. Callbacks run on the bus drain thread;
/// flush() gives the reader a happens-before edge, so tests read these
/// plainly after a flush (TSan agrees — that ordering is the point of
/// the acked flush).
struct Capture {
  std::vector<Event> Events;
  std::vector<size_t> BatchSizes;

  Subscription subscription(std::string Name,
                            uint64_t Mask = AllEventKinds,
                            std::function<bool(const Event &)> F = nullptr) {
    Subscription S;
    S.Name = std::move(Name);
    S.KindMask = Mask;
    S.Filter = std::move(F);
    S.OnBatch = [this](const std::vector<Event> &Batch) {
      BatchSizes.push_back(Batch.size());
      Events.insert(Events.end(), Batch.begin(), Batch.end());
    };
    return S;
  }
};

TEST(EventKinds, NamesAndBitsAreDistinct) {
  uint64_t Seen = 0;
  for (unsigned K = 0; K != NumEventKinds; ++K) {
    EventKind Kind = EventKind(K);
    EXPECT_NE(eventKindName(Kind), "?");
    uint64_t Bit = eventKindBit(Kind);
    EXPECT_EQ(Seen & Bit, 0u) << "bit collision at kind " << K;
    Seen |= Bit;
  }
  EXPECT_EQ(Seen, AllEventKinds);
}

TEST(EventBusTest, NoSubscriberPublishIsSkippedNotEnqueued) {
  std::shared_ptr<EventBus> Bus = EventBus::create();
  EXPECT_FALSE(Bus->wants(EventKind::CacheHit));
  EXPECT_FALSE(Bus->publish(Event(EventKind::CacheHit, 0)));
  BusStats S = Bus->stats();
  EXPECT_EQ(S.Published, 0u); // never touched the ring
  EXPECT_EQ(S.Skipped, 1u);
  EXPECT_EQ(S.Dropped, 0u);
}

TEST(EventBusTest, KindMaskRoutesPerSubscriber) {
  std::shared_ptr<EventBus> Bus = EventBus::create();
  Capture OnlyJobs, Everything;
  Bus->subscribe(
      OnlyJobs.subscription("jobs", eventKindBit(EventKind::JobSubmitted)));
  Bus->subscribe(Everything.subscription("all"));

  EXPECT_TRUE(Bus->wants(EventKind::JobSubmitted));
  EXPECT_TRUE(Bus->wants(EventKind::CacheHit)); // the "all" mask covers it
  EXPECT_TRUE(Bus->publish(Event(EventKind::JobSubmitted, 1, 10)));
  EXPECT_TRUE(Bus->publish(Event(EventKind::CacheHit, 2, 20)));
  Bus->flush();

  ASSERT_EQ(OnlyJobs.Events.size(), 1u);
  EXPECT_EQ(OnlyJobs.Events[0].Kind, EventKind::JobSubmitted);
  EXPECT_EQ(OnlyJobs.Events[0].A, 10u);
  ASSERT_EQ(Everything.Events.size(), 2u);
  EXPECT_EQ(Everything.Events[0].Kind, EventKind::JobSubmitted);
  EXPECT_EQ(Everything.Events[1].Kind, EventKind::CacheHit);
  // Timestamps are stamped by publish in ring order.
  EXPECT_LE(Everything.Events[0].TimeNs, Everything.Events[1].TimeNs);
}

TEST(EventBusTest, ExampleFingerprintPredicateFilters) {
  std::shared_ptr<EventBus> Bus = EventBus::create();
  Capture OneExample;
  Bus->subscribe(OneExample.subscription(
      "fp42", AllEventKinds,
      [](const Event &E) { return E.ExampleFp == 42; }));

  for (uint64_t Fp : {uint64_t(42), uint64_t(43), uint64_t(42), uint64_t(7)})
    Bus->publish(Event(EventKind::SketchGenerated, Fp));
  Bus->flush();

  ASSERT_EQ(OneExample.Events.size(), 2u);
  for (const Event &E : OneExample.Events)
    EXPECT_EQ(E.ExampleFp, 42u);
  // The predicate rejected events, but they still count as delivered to
  // the bus (a subscriber existed for the kind): nothing was dropped.
  EXPECT_EQ(Bus->stats().Dropped, 0u);
}

TEST(EventBusTest, BatchesRespectMaxBatchAndLoseNothing) {
  EventBus::Options Opts;
  Opts.Capacity = 1024;
  Opts.MaxBatch = 8;
  // Long idle interval: the drain thread sleeps while we pile events up,
  // so the flush-triggered drain sees a backlog it must split into
  // MaxBatch-sized callbacks.
  Opts.DrainInterval = std::chrono::milliseconds(10000);
  std::shared_ptr<EventBus> Bus = EventBus::create(Opts);
  Capture C;
  Bus->subscribe(C.subscription("all"));

  constexpr size_t N = 100;
  for (size_t I = 0; I != N; ++I)
    EXPECT_TRUE(Bus->publish(Event(EventKind::CacheHit, 1, I)));
  Bus->flush();

  ASSERT_EQ(C.Events.size(), N);
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(C.Events[I].A, I); // ring order == publish order
  for (size_t Sz : C.BatchSizes)
    EXPECT_LE(Sz, Opts.MaxBatch);
  EXPECT_GE(C.BatchSizes.size(), N / Opts.MaxBatch);
  BusStats S = Bus->stats();
  EXPECT_EQ(S.Published, N);
  EXPECT_EQ(S.Delivered, N);
  EXPECT_LE(S.MaxBatch, Opts.MaxBatch);
}

TEST(EventBusTest, DropNewestRefusesAndCountsWhenRingIsFull) {
  EventBus::Options Opts;
  Opts.Capacity = 4; // already a power of two; 4 slots exactly
  Opts.Policy = DropPolicy::DropNewest;
  std::shared_ptr<EventBus> Bus = EventBus::create(Opts);

  // A subscriber that parks the drain thread inside its callback until
  // released, so the ring genuinely fills behind it.
  std::mutex M;
  std::condition_variable CV;
  bool Started = false, Release = false;
  size_t Delivered = 0;
  Subscription S;
  S.Name = "blocker";
  S.OnBatch = [&](const std::vector<Event> &Batch) {
    std::unique_lock<std::mutex> Lock(M);
    Started = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
    Delivered += Batch.size();
  };
  Bus->subscribe(S);

  // First event: popped (freeing its slot) and dispatched into the
  // parked callback.
  EXPECT_TRUE(Bus->publish(Event(EventKind::CacheHit, 1)));
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Started; });
  }
  // Drain thread is parked: fill all 4 slots, then overflow.
  for (int I = 0; I != 4; ++I)
    EXPECT_TRUE(Bus->publish(Event(EventKind::CacheHit, 2)));
  for (int I = 0; I != 3; ++I)
    EXPECT_FALSE(Bus->publish(Event(EventKind::CacheHit, 3)))
        << "publish into a full ring must refuse under DropNewest";
  EXPECT_EQ(Bus->stats().Dropped, 3u);

  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  Bus->flush();
  // Everything accepted was delivered; the refused three never existed.
  {
    std::lock_guard<std::mutex> Lock(M);
    EXPECT_EQ(Delivered, 5u);
  }
  BusStats St = Bus->stats();
  EXPECT_EQ(St.Published, 5u);
  EXPECT_EQ(St.Delivered, 5u);
  EXPECT_EQ(St.Dropped, 3u);
}

TEST(EventBusTest, AckedFlushCoversEverythingPublishedBefore) {
  EventBus::Options Opts;
  // Idle interval far beyond the test: only flush's wake-up can explain
  // delivery, which is exactly the acked-flush contract under test.
  Opts.DrainInterval = std::chrono::milliseconds(10000);
  std::shared_ptr<EventBus> Bus = EventBus::create(Opts);
  Capture C;
  Bus->subscribe(C.subscription("all"));
  for (int I = 0; I != 50; ++I)
    Bus->publish(Event(EventKind::SketchRefuted, 1));
  Bus->flush();
  EXPECT_EQ(C.Events.size(), 50u); // no sleep, no retry: flush acked it
}

TEST(EventBusTest, DestructionDrainsOutstandingEvents) {
  Capture C;
  {
    EventBus::Options Opts;
    Opts.DrainInterval = std::chrono::milliseconds(10000);
    std::shared_ptr<EventBus> Bus = EventBus::create(Opts);
    Bus->subscribe(C.subscription("all"));
    for (int I = 0; I != 20; ++I)
      Bus->publish(Event(EventKind::SketchGenerated, 1));
  } // destructor must deliver all 20 before joining the drain thread
  EXPECT_EQ(C.Events.size(), 20u);
}

TEST(EventBusTest, UnsubscribeRecomputesTheActiveMask) {
  std::shared_ptr<EventBus> Bus = EventBus::create();
  Capture A, B;
  uint64_t IdA = Bus->subscribe(
      A.subscription("a", eventKindBit(EventKind::JobSubmitted)));
  Bus->subscribe(B.subscription("b", eventKindBit(EventKind::CacheHit)));

  EXPECT_TRUE(Bus->wants(EventKind::JobSubmitted));
  Bus->unsubscribe(IdA);
  // Only B's kinds remain active; A's kind short-circuits again.
  EXPECT_FALSE(Bus->wants(EventKind::JobSubmitted));
  EXPECT_TRUE(Bus->wants(EventKind::CacheHit));
  EXPECT_FALSE(Bus->publish(Event(EventKind::JobSubmitted, 1)));
  EXPECT_TRUE(Bus->publish(Event(EventKind::CacheHit, 1)));
  Bus->flush();
  EXPECT_EQ(A.Events.size(), 0u);
  EXPECT_EQ(B.Events.size(), 1u);
}

/// Concurrency stress (run under TSan in CI): four producers hammer a
/// deliberately tiny ring under DropPolicy::Block, so every publish
/// contends for slots and wraps the ring hundreds of times. Blocking
/// means lossless: every event must come out, and each producer's own
/// events must arrive in its publish order (tickets are claimed in
/// order, the consumer reads in ticket order).
TEST(EventBusTest, ConcurrentBlockingPublishIsLosslessAndPerProducerOrdered) {
  EventBus::Options Opts;
  Opts.Capacity = 8;
  Opts.MaxBatch = 4;
  Opts.Policy = DropPolicy::Block;
  std::shared_ptr<EventBus> Bus = EventBus::create(Opts);

  constexpr unsigned Producers = 4;
  constexpr uint64_t PerProducer = 2000;
  uint64_t LastSeq[Producers];
  uint64_t Count[Producers] = {0, 0, 0, 0};
  for (uint64_t &L : LastSeq)
    L = 0;
  Subscription S;
  S.Name = "order-checker";
  S.OnBatch = [&](const std::vector<Event> &Batch) {
    for (const Event &E : Batch) {
      ASSERT_LT(E.A, uint64_t(Producers));
      // B is 1-based so "nothing seen yet" needs no sentinel.
      EXPECT_GT(E.B, LastSeq[E.A]) << "producer " << E.A << " reordered";
      LastSeq[E.A] = E.B;
      ++Count[E.A];
    }
  };
  Bus->subscribe(S);

  std::vector<std::thread> Threads;
  for (unsigned P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      for (uint64_t I = 1; I <= PerProducer; ++I)
        EXPECT_TRUE(Bus->publish(Event(EventKind::CacheHit, P, P, I)));
    });
  for (std::thread &T : Threads)
    T.join();
  Bus->flush();

  for (unsigned P = 0; P != Producers; ++P) {
    EXPECT_EQ(Count[P], PerProducer);
    EXPECT_EQ(LastSeq[P], PerProducer);
  }
  BusStats St = Bus->stats();
  EXPECT_EQ(St.Published, uint64_t(Producers) * PerProducer);
  EXPECT_EQ(St.Delivered, uint64_t(Producers) * PerProducer);
  EXPECT_EQ(St.Dropped, 0u);
}

/// Subscribe/unsubscribe churn racing live traffic (TSan coverage of the
/// mask updates and the subscriber-list copy in the drain loop). Events
/// racing a subscription may be skipped or delivered — both fine; what
/// must hold is the absence of data races and torn accounting.
TEST(EventBusTest, SubscriptionChurnUnderTraffic) {
  EventBus::Options Opts;
  Opts.Policy = DropPolicy::Block; // lossless: accepted events never drop
  std::shared_ptr<EventBus> Bus = EventBus::create(Opts);
  std::atomic<uint64_t> Seen{0};
  std::atomic<bool> Stop{false};

  std::thread Producer([&] {
    while (!Stop.load(std::memory_order_relaxed))
      Bus->publish(Event(EventKind::CacheHit, 1));
  });
  for (int Cycle = 0; Cycle != 100; ++Cycle) {
    Subscription S;
    S.Name = "churn";
    S.KindMask = eventKindBit(EventKind::CacheHit);
    S.OnBatch = [&](const std::vector<Event> &Batch) {
      Seen.fetch_add(Batch.size(), std::memory_order_relaxed);
    };
    uint64_t Id = Bus->subscribe(S);
    std::this_thread::yield();
    Bus->unsubscribe(Id); // waits out any in-flight batch to "churn"
  }
  Stop.store(true);
  Producer.join();
  Bus->flush();

  BusStats St = Bus->stats();
  // Sanity, not timing: whatever was accepted was eventually delivered
  // or the ring was empty at shutdown; skipped events never entered it.
  EXPECT_EQ(St.Dropped, 0u);
  EXPECT_LE(Seen.load(), St.Published);
}

/// What the search publishes, on easy tasks solved one after another
/// over a lossless bus: one EngineFinished per solve whose snapshot is the
/// solve's Solution.Stats (perfbench builds its smt.* and synth.* layers
/// from these snapshots), one SketchGenerated per counted sketch, and
/// each sketch span closed by exactly one SketchRefuted or HoleFillBatch
/// for the same example before the next sketch opens (perfbench's tracer
/// relies on this).
TEST(SearchEvents, SnapshotsAndSketchSpansMatchTheSolve) {
  EventBus::Options Opts;
  Opts.Policy = DropPolicy::Block;
  std::shared_ptr<EventBus> Bus = EventBus::create(Opts);
  Capture C;
  Bus->subscribe(C.subscription(
      "search", eventKindBit(EventKind::SketchGenerated) |
                    eventKindBit(EventKind::SketchRefuted) |
                    eventKindBit(EventKind::HoleFillBatch) |
                    eventKindBit(EventKind::EngineFinished)));
  EngineOptions EOpts;
  EOpts.config(configSpec2(std::chrono::milliseconds(5000))).eventBus(Bus);

  // Easy tasks on which deduction refutes sketches, so both ways of
  // closing a sketch span occur.
  std::vector<BenchmarkTask> Tasks;
  for (const std::vector<BenchmarkTask> &Suite : {morpheusSuite(), sqlSuite()})
    for (const BenchmarkTask &T : Suite)
      for (const char *Id : {"C2-07", "C3-27", "C6-01", "SQL-08", "SQL-17"})
        if (T.Id == Id)
          Tasks.push_back(T);
  ASSERT_EQ(Tasks.size(), 5u);
  uint64_t AllRefuted = 0;
  for (const BenchmarkTask &T : Tasks) {
    Problem P = toProblem(T);
    Solution S = Engine(libraryForTask(T), EOpts).solve(P);
    Bus->flush();
    uint64_t Fp = exampleFingerprint(P.Inputs, P.Output);

    std::vector<const Event *> Finished;
    uint64_t Sketches = 0, Refuted = 0;
    bool Open = false;
    for (const Event &E : C.Events) {
      EXPECT_EQ(E.ExampleFp, Fp) << T.Id;
      switch (E.Kind) {
      case EventKind::SketchGenerated:
        EXPECT_FALSE(Open) << T.Id << ": sketch opened inside a sketch";
        Open = true;
        ++Sketches;
        break;
      case EventKind::SketchRefuted:
        ++Refuted;
        [[fallthrough]];
      case EventKind::HoleFillBatch:
        EXPECT_TRUE(Open) << T.Id << ": close without an open sketch";
        Open = false;
        break;
      default:
        EXPECT_FALSE(Open) << T.Id << ": engine finished inside a sketch";
        Finished.push_back(&E);
      }
    }
    EXPECT_FALSE(Open) << T.Id;
    EXPECT_EQ(Sketches, S.Stats.SketchesGenerated) << T.Id;
    EXPECT_EQ(Refuted, S.Stats.SketchesRefuted) << T.Id;
    AllRefuted += Refuted;
    ASSERT_EQ(Finished.size(), 1u) << T.Id;
    EXPECT_EQ(Finished[0]->A, S.Program ? 1u : 0u) << T.Id;
    ASSERT_TRUE(Finished[0]->Stats) << T.Id;
    const SynthesisStats &Ev = *Finished[0]->Stats;
    const SynthesisStats &In = S.Stats;
    EXPECT_EQ(Ev.HypothesesExplored, In.HypothesesExplored) << T.Id;
    EXPECT_EQ(Ev.SketchesGenerated, In.SketchesGenerated) << T.Id;
    EXPECT_EQ(Ev.SketchesRefuted, In.SketchesRefuted) << T.Id;
    EXPECT_EQ(Ev.PartialFillsTried, In.PartialFillsTried) << T.Id;
    EXPECT_EQ(Ev.PartialFillsPruned, In.PartialFillsPruned) << T.Id;
    EXPECT_EQ(Ev.CandidatesChecked, In.CandidatesChecked) << T.Id;
    EXPECT_EQ(Ev.ReusedCompletions, In.ReusedCompletions) << T.Id;
    EXPECT_EQ(Ev.Deduce.Calls, In.Deduce.Calls) << T.Id;
    EXPECT_EQ(Ev.Deduce.Rejections, In.Deduce.Rejections) << T.Id;
    EXPECT_EQ(Ev.Deduce.FastPathRejections, In.Deduce.FastPathRejections)
        << T.Id;
    EXPECT_EQ(Ev.Deduce.CacheHits, In.Deduce.CacheHits) << T.Id;
    EXPECT_EQ(Ev.Deduce.SolverChecks, In.Deduce.SolverChecks) << T.Id;
    EXPECT_EQ(Ev.Deduce.TemplateCompiles, In.Deduce.TemplateCompiles) << T.Id;
    EXPECT_EQ(Ev.Deduce.SessionBuilds, In.Deduce.SessionBuilds) << T.Id;
    EXPECT_EQ(Ev.Deduce.SessionHits, In.Deduce.SessionHits) << T.Id;
    EXPECT_EQ(Ev.Deduce.SolverPushes, In.Deduce.SolverPushes) << T.Id;
    EXPECT_EQ(Ev.Deduce.SolverPops, In.Deduce.SolverPops) << T.Id;
    EXPECT_DOUBLE_EQ(Ev.Deduce.SolverSeconds, In.Deduce.SolverSeconds)
        << T.Id;
    EXPECT_DOUBLE_EQ(Ev.Deduce.SignatureSeconds, In.Deduce.SignatureSeconds)
        << T.Id;
    EXPECT_DOUBLE_EQ(Ev.Deduce.SessionSeconds, In.Deduce.SessionSeconds)
        << T.Id;
    EXPECT_DOUBLE_EQ(Ev.Deduce.CheckSeconds, In.Deduce.CheckSeconds) << T.Id;
    EXPECT_DOUBLE_EQ(Ev.ElapsedSeconds, In.ElapsedSeconds) << T.Id;
    EXPECT_DOUBLE_EQ(Ev.WallSeconds, In.WallSeconds) << T.Id;
    EXPECT_EQ(Ev.TimedOut, In.TimedOut) << T.Id;
    C.Events.clear();
  }
  EXPECT_GT(AllRefuted, 0u);
  EXPECT_EQ(Bus->stats().Dropped, 0u);
}

} // namespace
