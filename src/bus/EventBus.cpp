//===- bus/EventBus.cpp - Off-hot-path synthesis event bus --------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "bus/EventBus.h"

#include <algorithm>
#include <cassert>

using namespace morpheus;

std::string_view morpheus::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::SketchGenerated:
    return "sketch-generated";
  case EventKind::SketchRefuted:
    return "sketch-refuted";
  case EventKind::HoleFillBatch:
    return "hole-fill-batch";
  case EventKind::EngineFinished:
    return "engine-finished";
  case EventKind::CacheHit:
    return "cache-hit";
  case EventKind::CacheEvict:
    return "cache-evict";
  case EventKind::CacheCoalesce:
    return "cache-coalesce";
  case EventKind::JobSubmitted:
    return "job-submitted";
  case EventKind::JobCompleted:
    return "job-completed";
  case EventKind::JobTimeout:
    return "job-timeout";
  case EventKind::JobStarted:
    return "job-started";
  case EventKind::WarmStateLoaded:
    return "warm-state-loaded";
  case EventKind::CheckpointSaved:
    return "checkpoint-saved";
  case EventKind::JobForwarded:
    return "job-forwarded";
  case EventKind::WorkerUp:
    return "worker-up";
  case EventKind::WorkerDown:
    return "worker-down";
  }
  return "?";
}

namespace {

size_t roundUpPow2(size_t N) {
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

} // namespace

std::shared_ptr<EventBus> EventBus::create(Options Opts) {
  // Not make_shared: the constructor is private and the control block
  // separation does not matter for a handful of buses per process.
  return std::shared_ptr<EventBus>(new EventBus(Opts));
}

std::shared_ptr<EventBus> EventBus::create() { return create(Options()); }

EventBus::EventBus(Options OptsIn)
    : Opts([&] {
        Options O = OptsIn;
        O.Capacity = roundUpPow2(std::max<size_t>(O.Capacity, 2));
        O.MaxBatch = std::max<size_t>(O.MaxBatch, 1);
        return O;
      }()),
      Mask(Opts.Capacity - 1), Epoch(std::chrono::steady_clock::now()),
      Ring(Opts.Capacity) {
  // Slot i starts claimable by ticket i (Vyukov's invariant).
  for (size_t I = 0; I != Ring.size(); ++I)
    Ring[I].Seq.store(I, std::memory_order_relaxed);
  Drain = std::thread([this] { drainLoop(); });
}

EventBus::~EventBus() {
  {
    MutexLock Lock(M);
    Stopping = true;
  }
  DrainCV.notify_all();
  Drain.join();
}

uint64_t EventBus::nowNs() const {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - Epoch)
                      .count());
}

bool EventBus::publish(Event E) {
  // The no-subscriber fast path: one relaxed load, no ring traffic. Mask
  // staleness is benign — an event racing subscribe() may be skipped or
  // delivered, both acceptable for telemetry that was off an instant ago.
  if (!wants(E.Kind)) {
    SkippedCount.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  E.TimeNs = nowNs();

  uint64_t Pos = EnqueuePos.load(std::memory_order_relaxed);
  Slot *S;
  for (;;) {
    S = &Ring[Pos & Mask];
    uint64_t Seq = S->Seq.load(std::memory_order_acquire);
    intptr_t Dif = intptr_t(Seq) - intptr_t(Pos);
    if (Dif == 0) {
      // Claimable: race other producers for the ticket. Relaxed is enough
      // — the ticket orders nothing; the slot sequence does.
      if (EnqueuePos.compare_exchange_weak(Pos, Pos + 1,
                                           std::memory_order_relaxed))
        break;
      // Pos reloaded by the failed CAS; retry.
    } else if (Dif < 0) {
      // Full: the consumer has not recycled this slot yet.
      if (Opts.Policy == DropPolicy::DropNewest) {
        DroppedCount.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      // Block: lossless capture was requested; telemetry back-pressures
      // the producer instead of losing events. The drain thread wakes at
      // least every DrainInterval, so this yield loop is bounded.
      std::this_thread::yield();
      Pos = EnqueuePos.load(std::memory_order_relaxed);
    } else {
      Pos = EnqueuePos.load(std::memory_order_relaxed);
    }
  }
  S->E = std::move(E);
  // The handoff: everything written above happens-before the consumer's
  // acquire load of this sequence value.
  S->Seq.store(Pos + 1, std::memory_order_release);
  return true;
}

size_t EventBus::popBatch(std::vector<Event> &Out) {
  size_t N = 0;
  while (N < Opts.MaxBatch) {
    Slot &S = Ring[DequeuePos & Mask];
    uint64_t Seq = S.Seq.load(std::memory_order_acquire);
    if (Seq != DequeuePos + 1)
      break; // empty, or a producer claimed but has not finished writing
    Out.push_back(std::move(S.E));
    S.E = Event(); // drop payload refs while we still own the slot
    // Recycle for the producer one lap ahead.
    S.Seq.store(DequeuePos + Opts.Capacity, std::memory_order_release);
    ++DequeuePos;
    ++N;
  }
  return N;
}

void EventBus::drainLoop() {
  std::vector<Event> Batch;
  std::vector<Subscriber> Subs;
  std::vector<Event> Filtered;
  for (;;) {
    Batch.clear();
    if (popBatch(Batch) == 0) {
      UniqueLock Lock(M);
      if (Stopping) {
        // A producer may have claimed a slot between our pop and the
        // stop flag; by contract no publisher outlives the bus (they
        // share ownership), so one more pop settles it.
        Lock.unlock();
        if (popBatch(Batch) == 0)
          return;
      } else {
        DrainCV.wait_for(Lock, Opts.DrainInterval);
        continue;
      }
    }

    bool InBatchAny = false;
    {
      MutexLock Lock(M);
      Subs = Subscribers;
    }
    uint64_t DeliveredAny = 0;
    for (const Subscriber &Sub : Subs) {
      Filtered.clear();
      for (const Event &E : Batch) {
        if (!(Sub.S.KindMask & eventKindBit(E.Kind)))
          continue;
        if (Sub.S.Filter && !Sub.S.Filter(E))
          continue;
        Filtered.push_back(E);
      }
      if (!Filtered.empty() && Sub.S.OnBatch) {
        Sub.S.OnBatch(Filtered);
        InBatchAny = true;
      }
    }
    if (InBatchAny) {
      // Conservative per-event accounting: an event counts as delivered
      // when its batch reached at least one subscriber.
      DeliveredAny = Batch.size();
    }

    {
      MutexLock Lock(M);
      ++BatchCount;
      MaxBatchSeen = std::max<uint64_t>(MaxBatchSeen, Batch.size());
      DeliveredToAny += DeliveredAny;
    }
    // Ordering for flush(): subscriber side effects above happen-before
    // a flusher's acquire load observing the new count.
    DeliveredCount.fetch_add(Batch.size(), std::memory_order_release);
    FlushCV.notify_all();
  }
}

uint64_t EventBus::subscribe(Subscription S) {
  MutexLock Lock(M);
  Subscriber Sub;
  Sub.Id = NextSubscriberId++;
  Sub.S = std::move(S);
  uint64_t Id = Sub.Id;
  ActiveMask.fetch_or(Sub.S.KindMask, std::memory_order_relaxed);
  Subscribers.push_back(std::move(Sub));
  return Id;
}

void EventBus::unsubscribe(uint64_t Id) {
  UniqueLock Lock(M);
  Subscribers.erase(std::remove_if(Subscribers.begin(), Subscribers.end(),
                                   [&](const Subscriber &S) {
                                     return S.Id == Id;
                                   }),
                    Subscribers.end());
  uint64_t Mask = 0;
  for (const Subscriber &S : Subscribers)
    Mask |= S.S.KindMask;
  ActiveMask.store(Mask, std::memory_order_relaxed);
  // The drain thread copies Subscribers before dispatching, so a batch
  // may still be in flight to the removed callback. Callers tearing down
  // subscriber state need that settled; waiting for one full batch
  // boundary (DeliveredCount moving past the current drain iteration)
  // would require tracking dispatch generations — a flush gives the same
  // guarantee more simply, except on the drain thread itself (a
  // callback unsubscribing itself), where waiting would self-deadlock.
  if (std::this_thread::get_id() == Drain.get_id())
    return;
  uint64_t Target = EnqueuePos.load(std::memory_order_acquire);
  FlushCV.wait(Lock, [&] {
    return DeliveredCount.load(std::memory_order_acquire) >= Target;
  });
}

void EventBus::flush() {
  assert(std::this_thread::get_id() != Drain.get_id() &&
         "flush() from a subscriber callback would self-deadlock");
  uint64_t Target = EnqueuePos.load(std::memory_order_acquire);
  UniqueLock Lock(M);
  DrainCV.notify_all(); // cut the idle wait short
  FlushCV.wait(Lock, [&] {
    return DeliveredCount.load(std::memory_order_acquire) >= Target;
  });
}

BusStats EventBus::stats() const {
  BusStats S;
  S.Published = EnqueuePos.load(std::memory_order_relaxed);
  S.Dropped = DroppedCount.load(std::memory_order_relaxed);
  S.Skipped = SkippedCount.load(std::memory_order_relaxed);
  MutexLock Lock(M);
  S.Delivered = DeliveredToAny;
  S.Batches = BatchCount;
  S.MaxBatch = MaxBatchSeen;
  return S;
}
