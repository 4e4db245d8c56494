//===- service/SynthService.h - Concurrent synthesis service ----*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer: an in-process synthesis service that turns the
/// one-shot Engine facade into something a front-end can throw traffic at.
///
///   SynthService Svc(Engine::standard(Opts),
///                    ServiceOptions().workers(4).cacheCapacity(1024));
///   JobHandle H = Svc.submit(Problem, JobRequest().deadline(2s));
///   ...
///   const Solution &S = H.get(); // blocks; or H.waitFor(...) / H.cancel()
///
/// Scheduling model:
///  - a fixed pool of worker threads pulls jobs off one bounded queue,
///    highest priority first and FIFO within a priority class;
///  - submit() blocks while the queue is full (backpressure); trySubmit()
///    refuses instead and counts a rejection;
///  - each job may carry a deadline measured from submission, and its
///    handle completes by that deadline no matter what: a reaper thread
///    sheds expired handles individually — queued ones as
///    QueueDeadline Timeouts that never ran, riders on a shared solve as
///    Timeouts while the solve continues for more patient waiters — and
///    a solve is bounded by the remaining time of the waiters it serves
///    (Engine::solve's absolute-deadline overload); see
///    JobRequest::deadline for the exact contract;
///  - every handle is individually cancellable. Cancelling a queued job
///    frees its queue slot; cancelling a running job stops the underlying
///    search via its CancellationToken — unless other handles are
///    coalesced onto the same solve, which then keeps running for them.
///
/// Work deduplication (the reason this is a service and not a thread
/// pool): jobs are keyed by the canonical problem fingerprint
/// (service/Fingerprint.h).
///  - ResultCache: a completed solve is stored under its fingerprint with
///    LRU eviction; a later identical submission completes instantly from
///    the cache (source CacheHit).
///  - Single flight: an identical submission while the original is still
///    queued or running attaches to it (source Coalesced) — N concurrent
///    identical requests cost one solve.
///
/// Thread safety: every public method of SynthService and JobHandle may be
/// called from any thread. Internally one service mutex guards the
/// scheduler state and a per-job mutex guards each result; the service
/// mutex is never held while solving.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SERVICE_SYNTHSERVICE_H
#define MORPHEUS_SERVICE_SYNTHSERVICE_H

#include "api/Engine.h"
#include "service/ResultCache.h"
#include "service/WarmState.h"
#include "support/Sync.h"

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

namespace morpheus {

/// Lifecycle of a submitted job. Coalesced followers mirror the solve they
/// ride on (Queued while it waits, Running once a worker picks it up).
enum class JobStatus {
  Queued,  ///< waiting for a worker (or for the solve it coalesced onto)
  Running, ///< a worker is solving it
  Done     ///< result available; get() will not block
};

/// How the service produced a handle's result.
enum class ResultSource {
  Solve,         ///< a worker ran the engine for this handle
  CacheHit,      ///< served from the ResultCache at submission
  Coalesced,     ///< attached to another handle's in-flight solve
  QueueDeadline, ///< deadline expired before a worker picked it up
  QueueCancelled ///< cancelled before a worker picked it up
};

/// Printable name ("solve" / "cache-hit" / ...) of \p S.
std::string_view resultSourceName(ResultSource S);

/// Per-job scheduling knobs for SynthService::submit.
class JobRequest {
public:
  JobRequest() = default;

  /// Higher-priority jobs dequeue first; equal priorities are FIFO.
  JobRequest &priority(int P) { Prio = P; return *this; }
  /// Wall-clock budget measured from submission; zero means none. The
  /// handle completes by its deadline no matter what: still queued then
  /// (queue wait counts) it becomes Outcome::Timeout without running,
  /// riding a shared solve it is shed as Timeout while the solve
  /// continues for more patient waiters, and a solve serving only this
  /// request is clamped to the deadline. One guarantee cuts the other
  /// way too: a shared solve runs as long as its most patient waiter
  /// needs (unclamped if any waiter has no deadline) — one handle's
  /// budget never truncates another handle's solve.
  JobRequest &deadline(std::chrono::milliseconds D) { Dl = D; return *this; }
  /// Called once, right after the accepted handle turns Done, on the
  /// completing thread — possibly under the service mutex, and possibly
  /// inside submit()/trySubmit() itself (a cache hit, or a submission
  /// during shutdown). Never called for a trySubmit() refusal. It must
  /// only hand off (e.g. EventLoop::post): never block, never call back
  /// into the service.
  JobRequest &onDone(std::function<void()> Fn) {
    Done = std::move(Fn);
    return *this;
  }

  int priority() const { return Prio; }
  std::chrono::milliseconds deadline() const { return Dl; }
  const std::function<void()> &onDone() const { return Done; }

private:
  int Prio = 0;
  std::chrono::milliseconds Dl{0};
  std::function<void()> Done;
};

/// Service-wide configuration.
class ServiceOptions {
public:
  ServiceOptions() = default;

  /// Worker pool size; 0 means hardware concurrency.
  ServiceOptions &workers(unsigned N) { NumWorkers = N; return *this; }
  /// Jobs that may wait in the queue (running jobs do not count). Full
  /// queue: submit() blocks, trySubmit() refuses. Clamped to >= 1: a
  /// zero-capacity queue could admit nothing, deadlocking every blocking
  /// submit.
  ServiceOptions &queueCapacity(size_t N) {
    QueueCap = N ? N : 1;
    return *this;
  }
  /// ResultCache entries; 0 disables result caching (single-flight
  /// coalescing still applies).
  ServiceOptions &cacheCapacity(size_t N) { CacheCap = N; return *this; }
  /// How often the background checkpointer persists the warm stores when
  /// the engine has a state dir (EngineOptions::stateDir). Only fires
  /// when something changed since the last checkpoint; a final
  /// checkpoint always runs at service destruction regardless. Zero
  /// disables the periodic thread (shutdown checkpoint still runs).
  ServiceOptions &checkpointInterval(std::chrono::milliseconds I) {
    CheckpointEvery = I;
    return *this;
  }

  unsigned workers() const { return NumWorkers; }
  size_t queueCapacity() const { return QueueCap; }
  size_t cacheCapacity() const { return CacheCap; }
  std::chrono::milliseconds checkpointInterval() const {
    return CheckpointEvery;
  }

private:
  unsigned NumWorkers = 0;
  size_t QueueCap = 256;
  size_t CacheCap = 512;
  std::chrono::milliseconds CheckpointEvery{30000};
};

/// Aggregate service counters (monotonic since construction) plus a
/// point-in-time queue snapshot.
struct ServiceStats {
  CacheStats Cache;
  /// Persistence counters; all zero when no state dir is configured.
  WarmStateStats Warm;
  size_t RefutationScopes = 0;  ///< example-scoped refutation stores held
  uint64_t Submitted = 0;       ///< submit + trySubmit accepted
  uint64_t Rejected = 0;        ///< trySubmit refused: queue full
  uint64_t SolvesRun = 0;       ///< engine solves actually started
  uint64_t QueueDeadlineExpired = 0; ///< jobs that timed out unstarted
  uint64_t RiderDeadlineExpired = 0; ///< riders shed mid-solve at their
                                     ///< own deadline
  uint64_t QueueCancelled = 0;  ///< jobs cancelled unstarted
  uint64_t Completed = 0;       ///< handles that reached Done
  size_t QueueDepth = 0;        ///< jobs waiting right now
  size_t MaxQueueDepth = 0;     ///< high-water mark
};

class SynthService;

/// A future-like view of one submitted job. Copyable (copies observe the
/// same job); default-constructed handles are invalid. Handles must not
/// outlive the service except for status/get on already-completed jobs.
class JobHandle {
public:
  JobHandle() = default;

  bool valid() const { return State != nullptr; }
  uint64_t fingerprint() const;
  JobStatus status() const;
  /// Meaningful once status() == Done.
  ResultSource source() const;

  /// Scheduling latency split, meaningful once status() == Done:
  /// queueMs() is submission → solve start (or → completion for handles
  /// that never ran: cache hits, queue-deadline expiries, cancellations);
  /// solveMs() is solve start → completion (0 for handles that never
  /// ran). A coalesced handle reports the shared solve's start.
  double queueMs() const;
  double solveMs() const;

  /// Blocks until the job completes; returns its Solution. The reference
  /// stays valid as long as any copy of this handle does.
  const Solution &get() const;
  /// Waits up to \p Timeout; true when the job is Done.
  bool waitFor(std::chrono::milliseconds Timeout) const;

  /// Requests cancellation: a queued job completes as Outcome::Cancelled
  /// without running; a running job's search is stopped unless other
  /// handles still depend on it (then only this handle is detached and
  /// cancelled). No-op on Done handles.
  void cancel() const;

private:
  friend class SynthService;
  struct JobState;
  explicit JobHandle(std::shared_ptr<JobState> S) : State(std::move(S)) {}
  std::shared_ptr<JobState> State;
};

/// The service. Construction spawns the worker pool; destruction cancels
/// every pending and running job, completes their handles, and joins the
/// pool.
class SynthService {
public:
  explicit SynthService(Engine Eng, ServiceOptions Opts = {});
  ~SynthService();

  SynthService(const SynthService &) = delete;
  SynthService &operator=(const SynthService &) = delete;

  /// Schedules \p P; blocks while the queue is full. Identical problems
  /// (by fingerprint) are served from cache or coalesced instead of
  /// queued. After shutdown begins, returns an already-cancelled handle.
  JobHandle submit(Problem P, JobRequest R = {});

  /// As submit(), but a full queue refuses (nullopt) instead of blocking.
  std::optional<JobHandle> trySubmit(Problem P, JobRequest R = {});

  /// Blocks until no job is queued or running. New submissions during the
  /// wait extend it.
  void drain();

  ServiceStats stats() const;
  const Engine &engine() const { return Eng; }
  const ServiceOptions &options() const { return Opts; }

private:
  friend class JobHandle;
  struct Work;

  JobHandle submitImpl(Problem P, const JobRequest &R, bool Blocking);
  /// Heap order: highest priority first, FIFO within a priority class.
  static bool workLater(const std::shared_ptr<Work> &A,
                        const std::shared_ptr<Work> &B);
  /// The deadline a shared solve must respect on behalf of \p Waiters:
  /// the latest of their deadlines, or nullopt (unclamped) as soon as
  /// one waiter has no deadline — one waiter's budget must never
  /// truncate another waiter's solve.
  static std::optional<std::chrono::steady_clock::time_point>
  neededDeadline(const std::vector<std::shared_ptr<JobHandle::JobState>> &Ws);
  void workerLoop();
  /// Completes queued jobs as their deadlines expire, so an expired job's
  /// get() returns at the deadline even while every worker is busy — the
  /// situation deadlines exist for. Workers also shed at dequeue as a
  /// backstop.
  void reaperLoop();
  /// Completes (as QueueDeadline Timeout) every waiter of \p W whose own
  /// deadline has passed and recomputes the solve clamp.
  void shedExpiredWaiters(Work &W) REQUIRES(M);
  /// Removes \p W's Inflight entry if it is still the registered one (a
  /// doomed work may have been replaced by a fresh identical submission).
  void unregisterInflight(const std::shared_ptr<Work> &W) REQUIRES(M);
  /// The refutation store scoped to \p Prob's example, created on first
  /// use — the deduction analog of the ResultCache: a job whose result
  /// was evicted (or whose budget differs, so its problem fingerprint
  /// misses) still reuses every refutation earlier jobs over the same
  /// example derived. Null when the engine runs without deduction.
  std::shared_ptr<RefutationStore> refutationScopeFor(const Problem &Prob)
      REQUIRES(M);
  /// Restores the warm stores from the engine's state dir (constructor
  /// only, before any worker exists — no locks needed) and publishes the
  /// WarmStateLoaded event.
  void loadWarmState();
  /// Periodic persistence (ServiceOptions::checkpointInterval); exits at
  /// shutdown — the destructor runs the final checkpoint itself, after
  /// the pool has drained, so it captures the true final state.
  void checkpointLoop();
  /// Snapshots both stores and writes one checkpoint. \p Final marks the
  /// shutdown checkpoint in the CheckpointSaved event.
  void checkpointNow(bool Final) EXCLUDES(M);
  /// Cheap change signal: cache insertions + per-scope store inserts. The
  /// periodic checkpointer skips when it hasn't moved.
  uint64_t warmActivitySignal() EXCLUDES(M);
  void cancelJob(const std::shared_ptr<JobHandle::JobState> &State)
      EXCLUDES(M);
  /// Completes \p State (the per-job lock is taken inside: lock order is
  /// always the service M before a JobState mutex), then runs its onDone
  /// hook. False when it already was Done.
  bool complete(const std::shared_ptr<JobHandle::JobState> &State, Solution S,
                std::optional<ResultSource> OverrideSource) REQUIRES(M);

  const Engine Eng;
  const ServiceOptions Opts;
  /// The engine config's event bus, cached as a raw pointer (Eng owns the
  /// shared_ptr and outlives every use). Null when no bus is attached —
  /// then every publish site is a single pointer test.
  EventBus *Bus = nullptr;
  /// Job ids for bus events: unique per submission, monotone in submit
  /// order. Atomic so ids are assigned before the service lock is taken.
  std::atomic<uint64_t> NextJobId{1};
  ResultCache Cache;
  /// The persistence tier; null when the engine has no state dir.
  std::unique_ptr<WarmState> Warm;

  mutable Mutex M;
  CondVar WorkAvailable;   ///< workers wait here
  CondVar SpaceAvailable;  ///< blocking submit + drain wait here
  CondVar DeadlineChanged; ///< wakes the reaper
  CondVar CheckpointWake;  ///< wakes the checkpointer (shutdown)
  /// Example-fingerprint-scoped refutation stores (see refutationScopeFor);
  /// bounded by epoch flush (in-flight solves keep their shared_ptrs, so a
  /// flush only forgets facts, it never breaks them).
  std::unordered_map<uint64_t, std::shared_ptr<RefutationStore>> RefScopes
      GUARDED_BY(M);
  std::deque<std::shared_ptr<Work>> Queue
      GUARDED_BY(M); ///< kept heap-ordered (see .cpp)
  /// Dedup index: the work a new identical submission may join. Usually
  /// queued-or-running, but a running work replaced by an incompatible
  /// duplicate is only reachable through RunningWorks below.
  std::unordered_map<uint64_t, std::shared_ptr<Work>> Inflight GUARDED_BY(M);
  /// Every work a worker is currently solving — the enumeration the
  /// reaper (rider deadlines) and destructor (stop requests) walk;
  /// Inflight alone can miss replaced works.
  std::vector<std::shared_ptr<Work>> RunningWorks GUARDED_BY(M);
  uint64_t NextSeq GUARDED_BY(M) = 0;
  size_t RunningCount GUARDED_BY(M) = 0;
  bool ShuttingDown GUARDED_BY(M) = false;
  /// Cache/QueueDepth fields filled by stats().
  ServiceStats Counters GUARDED_BY(M);

  /// Activity signal at the last published checkpoint (checkpointer
  /// thread + destructor only, which never run concurrently).
  uint64_t LastCheckpointSignal = 0;

  std::vector<std::thread> Pool;
  std::thread Reaper;
  std::thread Checkpointer; ///< only spawned when Warm is set
};

} // namespace morpheus

#endif // MORPHEUS_SERVICE_SYNTHSERVICE_H
