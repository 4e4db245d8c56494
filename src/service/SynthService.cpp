//===- service/SynthService.cpp - Concurrent synthesis service ----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locking discipline (the scheduler is deliberately two-level):
//  - the service mutex M guards the queue, the in-flight index, every
//    Work's mutable fields (Waiters, Running, Deadline) and the
//    counters;
//  - each JobState's own mutex guards its Status/Source/Result and backs
//    its condition variable, so handle waiters never touch M (and remain
//    safe on completed handles even while the service is busy);
//  - lock order is always M before a JobState mutex, never the reverse:
//    JobHandle methods either take only the state mutex (status/get) or
//    release it before calling into the service (cancel).
//  - a job's onDone hook runs inside complete(): under M, after the
//    JobState mutex is released. Hooks only hand off (the cluster tier
//    posts to an EventLoop), so the lock they take is a leaf under M.
//  - M is never held across Engine::solve; the only work done under it is
//    O(queue) bookkeeping.
//
//===----------------------------------------------------------------------===//

#include "service/SynthService.h"

#include "bus/EventBus.h"
#include "io/ProgramIO.h"
#include "service/Fingerprint.h"
#include "spec/Abstraction.h"

#include <algorithm>
#include <cassert>

using namespace morpheus;

std::string_view morpheus::resultSourceName(ResultSource S) {
  switch (S) {
  case ResultSource::Solve:
    return "solve";
  case ResultSource::CacheHit:
    return "cache-hit";
  case ResultSource::Coalesced:
    return "coalesced";
  case ResultSource::QueueDeadline:
    return "queue-deadline";
  case ResultSource::QueueCancelled:
    return "queue-cancelled";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Job state and handle
//===----------------------------------------------------------------------===//

struct JobHandle::JobState {
  /// Guards Status/Source/Result and backs CV. Fp, Svc and Deadline are
  /// immutable after submit; Job is guarded by the *service* mutex (an
  /// aliasing relation GUARDED_BY cannot express across objects).
  mutable Mutex M;
  CondVar CV;
  JobStatus Status GUARDED_BY(M) = JobStatus::Queued;
  ResultSource Source GUARDED_BY(M) = ResultSource::Solve;
  Solution Result GUARDED_BY(M);
  uint64_t Fp = 0;
  /// Bus identity, immutable after submit: the per-submission job id and
  /// the example fingerprint events are scoped to. Both zero when the
  /// service has no bus attached.
  uint64_t Id = 0;
  uint64_t ExFp = 0;
  /// Timing for queueMs()/solveMs(): SubmitTime is immutable after
  /// submit; StartTime is set (with Started) at the Queued→Running
  /// transition and DoneTime at completion, both under M.
  std::chrono::steady_clock::time_point SubmitTime;
  std::chrono::steady_clock::time_point StartTime GUARDED_BY(M);
  std::chrono::steady_clock::time_point DoneTime GUARDED_BY(M);
  bool Started GUARDED_BY(M) = false;
  /// This handle's own absolute deadline (nullopt = none). Enforced while
  /// the job is queued; see JobRequest::deadline for the contract.
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  SynthService *Svc = nullptr;
  std::shared_ptr<SynthService::Work> Job;
  /// JobRequest::onDone, immutable after submit; run once by complete().
  std::function<void()> OnDone;
};

uint64_t JobHandle::fingerprint() const { return State ? State->Fp : 0; }

double JobHandle::queueMs() const {
  assert(State && "queueMs() on an invalid handle");
  MutexLock Lock(State->M);
  if (State->Status != JobStatus::Done)
    return 0;
  auto End = State->Started ? State->StartTime : State->DoneTime;
  return std::chrono::duration<double, std::milli>(End - State->SubmitTime)
      .count();
}

double JobHandle::solveMs() const {
  assert(State && "solveMs() on an invalid handle");
  MutexLock Lock(State->M);
  if (State->Status != JobStatus::Done || !State->Started)
    return 0;
  return std::chrono::duration<double, std::milli>(State->DoneTime -
                                                   State->StartTime)
      .count();
}

JobStatus JobHandle::status() const {
  assert(State && "status() on an invalid handle");
  MutexLock Lock(State->M);
  return State->Status;
}

ResultSource JobHandle::source() const {
  assert(State && "source() on an invalid handle");
  MutexLock Lock(State->M);
  return State->Source;
}

const Solution &JobHandle::get() const {
  assert(State && "get() on an invalid handle");
  UniqueLock Lock(State->M);
  State->CV.wait(Lock, [&]() NO_THREAD_SAFETY_ANALYSIS {
    return State->Status == JobStatus::Done;
  });
  return State->Result;
}

bool JobHandle::waitFor(std::chrono::milliseconds Timeout) const {
  assert(State && "waitFor() on an invalid handle");
  UniqueLock Lock(State->M);
  return State->CV.wait_for(Lock, Timeout, [&]() NO_THREAD_SAFETY_ANALYSIS {
    return State->Status == JobStatus::Done;
  });
}

void JobHandle::cancel() const {
  if (!State)
    return;
  {
    MutexLock Lock(State->M);
    if (State->Status == JobStatus::Done)
      return;
  }
  State->Svc->cancelJob(State);
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

/// One schedulable solve, shared by every handle coalesced onto it. All
/// mutable fields are guarded by the service mutex.
struct SynthService::Work {
  uint64_t Fp = 0;
  Problem Prob;
  int Priority = 0;
  uint64_t Seq = 0; ///< submission order, for FIFO within a priority
  /// The deadline the solve will be clamped to: far enough for the most
  /// patient waiter, nullopt (unclamped) when any waiter has no deadline
  /// — one waiter's budget must never truncate another's solve. Kept in
  /// sync with Waiters while queued (see neededDeadline).
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  /// Stops the underlying search; fresh flag per work so cancelling one
  /// job never bleeds into another.
  CancellationToken Token = CancellationToken::create();
  std::vector<std::shared_ptr<JobHandle::JobState>> Waiters;
  bool Running = false;
};

bool SynthService::workLater(const std::shared_ptr<Work> &A,
                             const std::shared_ptr<Work> &B) {
  if (A->Priority != B->Priority)
    return A->Priority < B->Priority;
  return A->Seq > B->Seq; // "later" work sinks in the max-heap
}

namespace {

Solution cancelledSolution() {
  Solution S;
  S.Result = Outcome::Cancelled;
  return S;
}

} // namespace

std::optional<std::chrono::steady_clock::time_point> SynthService::neededDeadline(
    const std::vector<std::shared_ptr<JobHandle::JobState>> &Ws) {
  std::optional<std::chrono::steady_clock::time_point> Out;
  for (const std::shared_ptr<JobHandle::JobState> &W : Ws) {
    if (!W->Deadline)
      return std::nullopt;
    if (!Out || *W->Deadline > *Out)
      Out = W->Deadline;
  }
  return Out;
}

SynthService::SynthService(Engine Eng, ServiceOptions Opts)
    : Eng(std::move(Eng)), Opts(Opts),
      Bus(this->Eng.options().config().Bus.get()), Cache(Opts.cacheCapacity()) {
  // Restore before any worker exists: the ResultCache must be fully
  // populated before the first submission can probe it.
  if (!this->Eng.options().stateDir().empty()) {
    Warm = std::make_unique<WarmState>(
        this->Eng.options().stateDir(),
        warmStateCompatKey(this->Eng.library(), this->Eng.options().config()));
    loadWarmState();
  }
  unsigned N = this->Opts.workers();
  if (N == 0) {
    N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1;
  }
  Pool.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Pool.emplace_back([this] { workerLoop(); });
  Reaper = std::thread([this] { reaperLoop(); });
  if (Warm && this->Opts.checkpointInterval().count() > 0)
    Checkpointer = std::thread([this] { checkpointLoop(); });
}

SynthService::~SynthService() {
  {
    MutexLock Lock(M);
    ShuttingDown = true;
    // Queued jobs will never run: complete their handles as Cancelled.
    for (const std::shared_ptr<Work> &W : Queue) {
      Inflight.erase(W->Fp);
      for (const std::shared_ptr<JobHandle::JobState> &St : W->Waiters) {
        St->Job.reset();
        if (complete(St, cancelledSolution(), ResultSource::QueueCancelled))
          ++Counters.QueueCancelled;
      }
      W->Waiters.clear();
    }
    Queue.clear();
    // Running solves: ask them to stop; their worker completes the handles
    // (as Cancelled) on the way out.
    for (const std::shared_ptr<Work> &W : RunningWorks)
      W->Token.requestStop();
  }
  WorkAvailable.notify_all();
  SpaceAvailable.notify_all();
  DeadlineChanged.notify_all();
  CheckpointWake.notify_all();
  for (std::thread &T : Pool)
    T.join();
  Reaper.join();
  if (Checkpointer.joinable())
    Checkpointer.join();
  // Final checkpoint after every thread is gone: it captures the true
  // final state, and nothing can mutate the cache underneath it.
  if (Warm)
    checkpointNow(/*Final=*/true);
}

JobHandle SynthService::submit(Problem P, JobRequest R) {
  return submitImpl(std::move(P), R, /*Blocking=*/true);
}

std::optional<JobHandle> SynthService::trySubmit(Problem P, JobRequest R) {
  JobHandle H = submitImpl(std::move(P), R, /*Blocking=*/false);
  if (!H.valid())
    return std::nullopt;
  return H;
}

JobHandle SynthService::submitImpl(Problem P, const JobRequest &R,
                                   bool Blocking) {
  auto SubmitTime = std::chrono::steady_clock::now();
  // Fingerprinting hashes every cell of a never-seen table; do it before
  // taking the service lock.
  uint64_t Fp = problemFingerprint(P, Eng.options());

  auto State = std::make_shared<JobHandle::JobState>();
  State->Fp = Fp;
  State->Svc = this;
  State->SubmitTime = SubmitTime;
  if (R.deadline().count() > 0)
    State->Deadline = SubmitTime + R.deadline();
  State->OnDone = R.onDone();

  // Bus identity and the submission event, before the lock: the problem
  // snapshot copy is cheap (tables share columns), and the recorder sees
  // every submission — including ones served from cache or refused below —
  // so a replay re-drives the exact traffic, not just the solves.
  if (Bus) {
    State->Id = NextJobId.fetch_add(1, std::memory_order_relaxed);
    State->ExFp = exampleFingerprint(P.Inputs, P.Output);
    if (Bus->wants(EventKind::JobSubmitted)) {
      Event E(EventKind::JobSubmitted, State->ExFp, State->Id, Fp,
              uint64_t(int64_t(R.priority())),
              uint64_t(R.deadline().count()));
      E.Prob = std::make_shared<const Problem>(P);
      Bus->publish(std::move(E));
    }
  }

  UniqueLock Lock(M);
  for (;;) {
    if (ShuttingDown) {
      if (complete(State, cancelledSolution(), ResultSource::QueueCancelled))
        ++Counters.QueueCancelled;
      ++Counters.Submitted;
      return JobHandle(std::move(State));
    }

    // Fast path: an identical problem already solved under these options.
    // probe, not lookup: whether this submission is a miss, a coalesce or
    // a backpressure retry is only known further down.
    if (std::optional<Solution> Hit = Cache.probe(Fp)) {
      // Seconds reports this handle's latency, and a hit costs nothing;
      // the original solve's cost lives in the cached Stats.
      Hit->Seconds = 0;
      if (Bus && Bus->wants(EventKind::CacheHit))
        Bus->publish(Event(EventKind::CacheHit, State->ExFp, State->Id, Fp));
      complete(State, std::move(*Hit), ResultSource::CacheHit);
      ++Counters.Submitted;
      return JobHandle(std::move(State));
    }

    // Single flight: identical problem queued or running right now. A
    // running solve keeps the clamp it started with, so it can serve
    // this handle only if that clamp covers this handle's need —
    // otherwise a deadline-free (or more patient) submission would
    // inherit a truncated Timeout, and "one handle's budget never
    // truncates another handle's solve" is the contract. Incompatible:
    // fall through and start a fresh solve (replacing the in-flight
    // registration; the old work completes for its own waiters).
    auto It = Inflight.find(Fp);
    bool Compatible =
        It != Inflight.end() &&
        (!It->second->Running || !It->second->Deadline ||
         (State->Deadline && *State->Deadline <= *It->second->Deadline));
    if (Compatible) {
      const std::shared_ptr<Work> &W = It->second;
      State->Source = ResultSource::Coalesced;
      State->Job = W;
      W->Waiters.push_back(State);
      if (W->Running) {
        // Riding a solve that already started: the reaper still
        // completes this handle as Timeout at its own deadline if the
        // result hasn't arrived.
        {
          MutexLock SL(State->M);
          State->Status = JobStatus::Running;
          State->Started = true;
          // This handle never waited: its solve was already underway.
          State->StartTime = SubmitTime;
        }
        if (Bus && Bus->wants(EventKind::JobStarted))
          Bus->publish(
              Event(EventKind::JobStarted, State->ExFp, State->Id, Fp));
        if (State->Deadline)
          DeadlineChanged.notify_one();
      } else {
        W->Deadline = neededDeadline(W->Waiters);
        if (State->Deadline)
          DeadlineChanged.notify_one();
        // An urgent duplicate must not inherit a lazy submitter's queue
        // position: the shared work is promoted to the highest interested
        // priority.
        if (R.priority() > W->Priority) {
          W->Priority = R.priority();
          std::make_heap(Queue.begin(), Queue.end(),
                         &SynthService::workLater);
        }
      }
      Cache.noteCoalesced();
      if (Bus && Bus->wants(EventKind::CacheCoalesce))
        Bus->publish(
            Event(EventKind::CacheCoalesce, State->ExFp, State->Id, Fp));
      ++Counters.Submitted;
      return JobHandle(std::move(State));
    }

    if (Queue.size() < Opts.queueCapacity())
      break;
    if (!Blocking) {
      ++Counters.Rejected;
      return JobHandle(); // invalid: the queue-full refusal
    }
    // Backpressure: wait for a slot, then re-run the cache/in-flight
    // checks — the identical problem may have completed meanwhile. A job
    // with a deadline waits only until that deadline: saturation lasting
    // past it is exactly the tail-latency case the deadline bounds.
    auto SlotFree = [&]() NO_THREAD_SAFETY_ANALYSIS {
      return ShuttingDown || Queue.size() < Opts.queueCapacity();
    };
    if (State->Deadline) {
      if (!SpaceAvailable.wait_until(Lock, *State->Deadline, SlotFree)) {
        Solution S;
        S.Result = Outcome::Timeout;
        if (complete(State, std::move(S), ResultSource::QueueDeadline)) {
          ++Counters.QueueDeadlineExpired;
          if (Bus && Bus->wants(EventKind::JobTimeout))
            Bus->publish(Event(EventKind::JobTimeout, State->ExFp, State->Id,
                               Fp, /*QueueExpiry=*/1));
        }
        ++Counters.Submitted;
        return JobHandle(std::move(State));
      }
    } else {
      SpaceAvailable.wait(Lock, SlotFree);
    }
  }

  auto W = std::make_shared<Work>();
  W->Fp = Fp;
  W->Prob = std::move(P);
  W->Priority = R.priority();
  W->Seq = NextSeq++;
  W->Deadline = State->Deadline;
  W->Waiters.push_back(State);
  State->Job = W;

  Cache.noteMiss(); // this submission really does fall through to a solve
  // operator[]: may replace a running-but-incompatible work's entry; its
  // identity-guarded unregister leaves this one alone.
  Inflight[Fp] = W;
  Queue.push_back(std::move(W));
  std::push_heap(Queue.begin(), Queue.end(), &SynthService::workLater);
  Counters.MaxQueueDepth = std::max(Counters.MaxQueueDepth, Queue.size());
  ++Counters.Submitted;
  WorkAvailable.notify_one();
  if (State->Deadline)
    DeadlineChanged.notify_one();
  return JobHandle(std::move(State));
}

void SynthService::workerLoop() {
  UniqueLock Lock(M);
  for (;;) {
    WorkAvailable.wait(Lock, [&]() NO_THREAD_SAFETY_ANALYSIS {
      return ShuttingDown || !Queue.empty();
    });
    if (Queue.empty()) {
      if (ShuttingDown)
        return;
      continue;
    }
    std::pop_heap(Queue.begin(), Queue.end(), &SynthService::workLater);
    std::shared_ptr<Work> W = std::move(Queue.back());
    Queue.pop_back();
    SpaceAvailable.notify_all();

    // Backstop shed (the reaper normally fires first): anyone whose
    // deadline blew while queued completes as Timeout without the engine
    // ever running for it.
    shedExpiredWaiters(*W);
    if (W->Waiters.empty()) { // everyone expired: nothing left to solve
      unregisterInflight(W);
      SpaceAvailable.notify_all(); // drain() watches completions too
      continue;
    }

    // An identical solve may have completed while this one waited its
    // turn (the incompatible-replacement path can queue a duplicate):
    // serve the stored result instead of re-burning a worker. peek, not
    // probe — these submissions were already classified at submit time.
    if (std::optional<Solution> Hit = Cache.peek(W->Fp)) {
      unregisterInflight(W);
      Cache.reclassifyMissAsHit(); // the admission-time miss didn't stick
      Hit->Seconds = 0; // served, not solved
      std::vector<std::shared_ptr<JobHandle::JobState>> Waiters =
          std::move(W->Waiters);
      W->Waiters.clear();
      for (const std::shared_ptr<JobHandle::JobState> &St : Waiters) {
        St->Job.reset();
        if (Bus && Bus->wants(EventKind::CacheHit))
          Bus->publish(Event(EventKind::CacheHit, St->ExFp, St->Id, W->Fp));
        complete(St, *Hit, ResultSource::CacheHit);
      }
      SpaceAvailable.notify_all();
      continue;
    }

    W->Running = true;
    ++RunningCount;
    RunningWorks.push_back(W);
    ++Counters.SolvesRun;
    auto SolveStart = std::chrono::steady_clock::now();
    for (const std::shared_ptr<JobHandle::JobState> &St : W->Waiters) {
      {
        MutexLock SL(St->M);
        St->Status = JobStatus::Running;
        St->Started = true;
        St->StartTime = SolveStart;
      }
      if (Bus && Bus->wants(EventKind::JobStarted))
        Bus->publish(Event(EventKind::JobStarted, St->ExFp, St->Id, W->Fp));
    }

    // Captured once: the reaper may shed riders (it never touches a
    // running work's Deadline, but the clamp that actually applied is
    // what the cache-soundness check below must reason about).
    auto SolveClamp = W->Deadline;
    Lock.unlock();
    Solution S = Eng.solve(W->Prob, W->Token, SolveClamp);
    Lock.lock();

    unregisterInflight(W);
    W->Running = false;
    --RunningCount;
    RunningWorks.erase(
        std::remove(RunningWorks.begin(), RunningWorks.end(), W),
        RunningWorks.end());
    // A cancelled search says nothing about the problem. Everything else
    // is a reusable verdict — Solved and Exhausted unconditionally (a
    // solution is a solution, and Exhausted means the space emptied
    // *before* any clamp could fire: the engine reports Timeout, never
    // Exhausted, when a deadline cuts it short), and Timeout only when a
    // per-job deadline clamp could not have truncated the keyed engine
    // budget — a short-deadline Timeout says less than the key promises
    // and would poison deadline-free requests.
    // One second of slack absorbs the scheduling gap between SolveStart
    // and the engine anchoring its own deadline — a clamp landing inside
    // that gap still truncates, so err toward not caching.
    bool ClampTruncated =
        SolveClamp && *SolveClamp < SolveStart + Eng.options().config().Timeout +
                                        std::chrono::seconds(1);
    if (S.Result == Outcome::Solved || S.Result == Outcome::Exhausted ||
        (S.Result == Outcome::Timeout && !ClampTruncated)) {
      std::optional<uint64_t> Evicted = Cache.insert(W->Fp, S);
      if (Evicted && Bus && Bus->wants(EventKind::CacheEvict))
        Bus->publish(Event(EventKind::CacheEvict, 0, 0, *Evicted));
    }
    std::vector<std::shared_ptr<JobHandle::JobState>> Waiters =
        std::move(W->Waiters);
    W->Waiters.clear();
    for (const std::shared_ptr<JobHandle::JobState> &St : Waiters) {
      St->Job.reset();
      complete(St, S, std::nullopt);
    }
    SpaceAvailable.notify_all();
  }
}

void SynthService::loadWarmState() {
  Warm->loadResults(Cache, Eng.library());
  if (Bus && Bus->wants(EventKind::WarmStateLoaded)) {
    WarmStateStats W = Warm->stats();
    Bus->publish(Event(EventKind::WarmStateLoaded, 0, W.ResultsLoaded,
                       W.TornTails, W.FilesRejected ? 1 : 0));
  }
}

uint64_t SynthService::warmActivitySignal() const {
  CacheStats CS = Cache.stats();
  return CS.Insertions + CS.WarmLoaded;
}

void SynthService::checkpointLoop() {
  UniqueLock Lock(M);
  for (;;) {
    CheckpointWake.wait_for(Lock, Opts.checkpointInterval(),
                            [&]() NO_THREAD_SAFETY_ANALYSIS {
                              return ShuttingDown;
                            });
    if (ShuttingDown)
      return; // the destructor runs the final checkpoint itself
    Lock.unlock();
    if (warmActivitySignal() != LastCheckpointSignal)
      checkpointNow(/*Final=*/false);
    Lock.lock();
  }
}

void SynthService::checkpointNow(bool Final) {
  // The signal is read before the snapshot: activity landing between the
  // two is re-captured by the next interval's signal comparison.
  uint64_t Signal = warmActivitySignal();
  std::vector<std::pair<uint64_t, Solution>> Results = Cache.snapshot();
  if (Warm->checkpoint(Results)) {
    LastCheckpointSignal = Signal;
    if (Bus && Bus->wants(EventKind::CheckpointSaved))
      Bus->publish(Event(EventKind::CheckpointSaved, 0, Results.size(),
                         Warm->stats().LastCheckpointBytes, Final ? 1 : 0));
  }
}

void SynthService::cancelJob(const std::shared_ptr<JobHandle::JobState> &State) {
  MutexLock Lock(M);
  std::shared_ptr<Work> W = State->Job;
  if (!W) {
    // Completed (or completing) since the caller's check; complete() is a
    // no-op then.
    complete(State, cancelledSolution(), std::nullopt);
    return;
  }
  State->Job.reset();
  W->Waiters.erase(std::remove(W->Waiters.begin(), W->Waiters.end(), State),
                   W->Waiters.end());
  // Keep the queued solve clamp in sync: with this waiter gone, the
  // survivors' deadlines bound the solve again (e.g. a deadline-free
  // waiter cancelling must not leave a deadline-bearing one unclamped).
  if (!W->Running && !W->Waiters.empty())
    W->Deadline = neededDeadline(W->Waiters);
  if (W->Running) {
    // Detach this handle; stop the search only when nobody else wants the
    // result (coalesced followers keep it alive). A doomed solve is also
    // unregistered so an identical submission arriving while it winds
    // down starts fresh instead of coalescing onto a Cancelled result.
    if (W->Waiters.empty()) {
      W->Token.requestStop();
      unregisterInflight(W);
    }
    complete(State, cancelledSolution(), std::nullopt);
    return;
  }
  if (W->Waiters.empty()) {
    // Last waiter gone: remove the work from the heap outright — leaving
    // a dead entry behind would let a cancel-heavy client grow the heap
    // (and its Problem copies) without bound while all workers are busy.
    auto It = std::find(Queue.begin(), Queue.end(), W);
    if (It != Queue.end()) {
      Queue.erase(It);
      std::make_heap(Queue.begin(), Queue.end(), &SynthService::workLater);
    }
    Inflight.erase(W->Fp);
    SpaceAvailable.notify_all();
  }
  if (complete(State, cancelledSolution(), ResultSource::QueueCancelled))
    ++Counters.QueueCancelled;
}

bool SynthService::complete(const std::shared_ptr<JobHandle::JobState> &State,
                            Solution S,
                            std::optional<ResultSource> OverrideSource) {
  Outcome Res = S.Result;
  ResultSource Src;
  HypPtr Prog;
  {
    MutexLock Lock(State->M);
    if (State->Status == JobStatus::Done)
      return false;
    State->Status = JobStatus::Done;
    State->DoneTime = std::chrono::steady_clock::now();
    if (OverrideSource)
      State->Source = *OverrideSource;
    Src = State->Source;
    State->Result = std::move(S);
    Prog = State->Result.Program;
  }
  ++Counters.Completed;
  State->CV.notify_all();
  if (State->OnDone)
    State->OnDone();
  // Every handle completes through here exactly once (the Done check
  // above), so JobCompleted is the recorder's one outcome record per job.
  if (Bus && Bus->wants(EventKind::JobCompleted)) {
    Event E(EventKind::JobCompleted, State->ExFp, State->Id, State->Fp,
            uint64_t(Res), uint64_t(Src));
    if (Prog)
      E.Text = std::make_shared<const std::string>(printSexp(Prog));
    Bus->publish(std::move(E));
  }
  return true;
}

void SynthService::shedExpiredWaiters(Work &W) {
  auto Now = std::chrono::steady_clock::now();
  bool AnyExpired = false;
  for (const std::shared_ptr<JobHandle::JobState> &St : W.Waiters)
    if (St->Deadline && Now >= *St->Deadline) {
      St->Job.reset();
      Solution S;
      S.Result = Outcome::Timeout;
      // A queued shed never reached the engine (QueueDeadline); a rider
      // shed from a running solve keeps its Solve/Coalesced source — for
      // it, the search simply did not finish within its budget.
      if (complete(St, std::move(S),
                   W.Running ? std::nullopt
                             : std::optional<ResultSource>(
                                   ResultSource::QueueDeadline))) {
        if (W.Running)
          ++Counters.RiderDeadlineExpired;
        else
          ++Counters.QueueDeadlineExpired;
        if (Bus && Bus->wants(EventKind::JobTimeout))
          Bus->publish(Event(EventKind::JobTimeout, St->ExFp, St->Id, St->Fp,
                             W.Running ? 0 : 1));
      }
      AnyExpired = true;
    }
  if (AnyExpired) {
    W.Waiters.erase(
        std::remove_if(W.Waiters.begin(), W.Waiters.end(),
                       [](const std::shared_ptr<JobHandle::JobState> &St) {
                         return !St->Job;
                       }),
        W.Waiters.end());
    // Survivors' solve clamp no longer carries the shed deadlines. A
    // running solve keeps the clamp it started with (the worker captured
    // it at launch).
    if (!W.Running)
      W.Deadline = neededDeadline(W.Waiters);
  }
}

void SynthService::unregisterInflight(const std::shared_ptr<Work> &W) {
  auto It = Inflight.find(W->Fp);
  if (It != Inflight.end() && It->second == W)
    Inflight.erase(It);
}

void SynthService::reaperLoop() {
  UniqueLock Lock(M);
  while (!ShuttingDown) {
    // Earliest deadline across every live job — queued or riding a
    // running solve: each handle must complete as Timeout at its own
    // deadline even when workers are saturated or the shared solve it
    // rides is unclamped by a more patient waiter. Queue + RunningWorks
    // (not Inflight) is the complete enumeration: a replaced running
    // work has left the index but still carries riders.
    auto EachLive = [&](auto &&Fn) {
      for (const std::shared_ptr<Work> &W : Queue)
        Fn(W);
      for (const std::shared_ptr<Work> &W : RunningWorks)
        Fn(W);
    };
    std::optional<std::chrono::steady_clock::time_point> Next;
    EachLive([&](const std::shared_ptr<Work> &W) {
      for (const std::shared_ptr<JobHandle::JobState> &St : W->Waiters)
        if (St->Deadline && (!Next || *St->Deadline < *Next))
          Next = St->Deadline;
    });

    if (!Next) {
      DeadlineChanged.wait(Lock); // until a deadline is queued or shutdown
      continue;
    }
    if (DeadlineChanged.wait_until(Lock, *Next) ==
            std::cv_status::no_timeout ||
        ShuttingDown)
      continue; // new deadline to consider (or shutdown); recompute

    // *Next has passed: complete expired waiters now.
    std::vector<std::shared_ptr<Work>> Live;
    Live.reserve(Queue.size() + RunningWorks.size());
    EachLive([&](const std::shared_ptr<Work> &W) { Live.push_back(W); });
    bool Removed = false;
    for (const std::shared_ptr<Work> &W : Live) {
      shedExpiredWaiters(*W);
      if (!W->Waiters.empty())
        continue;
      if (W->Running) {
        // Nobody is left waiting: stop the search; the worker completes
        // the (empty) work on the way out without caching Cancelled.
        W->Token.requestStop();
        unregisterInflight(W);
      } else {
        auto It = std::find(Queue.begin(), Queue.end(), W);
        if (It != Queue.end())
          Queue.erase(It);
        unregisterInflight(W);
        Removed = true;
      }
    }
    if (Removed) {
      std::make_heap(Queue.begin(), Queue.end(), &SynthService::workLater);
      SpaceAvailable.notify_all();
    }
  }
}

void SynthService::drain() {
  UniqueLock Lock(M);
  SpaceAvailable.wait(Lock, [&]() NO_THREAD_SAFETY_ANALYSIS {
    return Queue.empty() && RunningCount == 0;
  });
}

ServiceStats SynthService::stats() const {
  MutexLock Lock(M);
  ServiceStats S = Counters;
  S.Cache = Cache.stats();
  if (Warm)
    S.Warm = Warm->stats();
  S.QueueDepth = Queue.size();
  return S;
}
