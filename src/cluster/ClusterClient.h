//===- cluster/ClusterClient.h - Fingerprint-sharded coordinator -*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator of the cluster tier: accepts jobs like a SynthService,
/// consistent-hashes them by problem fingerprint across worker nodes
/// (cluster/WorkerNode.h, spoken to over net/Wire.h), and falls back to a
/// local SynthService when no shard can take a job. Because placement is
/// by fingerprint, every repeated or sibling problem lands on the worker
/// that already holds its ResultCache entry and durable warm state — the
/// per-process caches become one cluster-wide tier.
///
/// Scheduling/fault model (all decisions on one EventLoop thread):
///  - routing walks the hash ring from the fingerprint's owner: the first
///    worker that is Up and under its in-flight cap gets the job; an Up
///    worker at its cap queues it in a bounded per-link backlog; a link
///    still connecting holds jobs in backlog until its handshake settles;
///    links that are down (or refused the handshake) are skipped;
///  - a link failure — connect refusal, EOF, frame corruption — reroutes
///    everything outstanding or backlogged on it (attempt counter
///    incremented) and schedules a reconnect with exponential backoff;
///    after a few remote tries a job is solved locally;
///  - when every shard for a job is unavailable, the local service solves
///    it (fail-back, never failure); its job's JobRequest::onDone hook
///    posts the completion back to the loop thread;
///  - deadlines propagate: the Solve frame carries the remaining budget,
///    the worker's own reaper enforces it, and a coordinator-side timer
///    at deadline+grace catches links that hang without dying.
///
/// Bus events: JobForwarded per remote send, WorkerUp/WorkerDown per link
/// transition — a dashboard subscriber sees the cluster breathe.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_CLUSTER_CLUSTERCLIENT_H
#define MORPHEUS_CLUSTER_CLUSTERCLIENT_H

#include "cluster/HashRing.h"
#include "net/EventLoop.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "service/SynthService.h"

#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>

namespace morpheus {

/// Coordinator configuration.
struct ClusterOptions {
  std::vector<SockAddr> Workers;
  /// Solve frames a worker may hold unanswered before new jobs queue in
  /// its backlog. Sized to keep a worker's pool busy without burying a
  /// slow shard: the worker also has its own queue behind this.
  unsigned MaxInflightPerWorker = 8;
  int ConnectTimeoutMs = 2000;
  int ReconnectBackoffMs = 100; ///< initial; doubles per failure
};

/// Aggregate coordinator counters (monotonic since construction).
struct ClusterStats {
  uint64_t Submitted = 0;
  uint64_t Forwarded = 0;       ///< Solve frames sent (re-sends included)
  uint64_t RemoteCompleted = 0; ///< Result frames matched to a job
  uint64_t RemoteErrors = 0;    ///< Error frames (job then solved locally)
  uint64_t Failovers = 0;       ///< jobs rerouted off a failed link
  uint64_t LocalSolves = 0;     ///< jobs the local service handled
  uint64_t DeadlineExpired = 0; ///< grace timer fired (hung shard)
  uint64_t Cancelled = 0;
  uint64_t WorkerUpEvents = 0;
  uint64_t WorkerDownEvents = 0;
  size_t WorkersUp = 0;                    ///< links Up right now
  std::vector<uint64_t> PerWorkerForwarded; ///< indexed like Workers
};

class ClusterClient;

/// A future-like view of one cluster job; the cluster analog of
/// JobHandle. Copyable; must not outlive its ClusterClient except for
/// get()/metadata on already-completed jobs.
class ClusterJob {
public:
  ClusterJob() = default;

  bool valid() const { return St != nullptr; }
  /// Blocks until the job completes.
  const Solution &get() const;
  bool waitFor(std::chrono::milliseconds Timeout) const;
  void cancel() const;

  // Metadata, meaningful once the job completed:
  /// resultSourceName of whichever service solved it ("solve",
  /// "cache-hit", ...), or "deadline" when the grace timer fired.
  std::string source() const;
  double queueMs() const;
  double solveMs() const;
  /// Worker index that answered; -1 = the local service.
  int worker() const;
  /// Remote delivery attempts consumed (0 = went straight local).
  int attempts() const;

private:
  friend class ClusterClient;
  struct State;
  explicit ClusterJob(std::shared_ptr<State> S) : St(std::move(S)) {}
  std::shared_ptr<State> St;
};

class ClusterClient {
public:
  /// The same (library, engine options, service options) a single-node
  /// server would use — the local fail-back service is built from them,
  /// and the handshake digests are derived from them. \p EOpts' event
  /// bus, if any, only observes. Connections start immediately; jobs may
  /// be submitted before any link is up (they ride the backlog or solve
  /// locally per the routing rules above).
  ClusterClient(ComponentLibrary Lib, EngineOptions EOpts,
                ServiceOptions SOpts, ClusterOptions COpts);
  ~ClusterClient();

  ClusterClient(const ClusterClient &) = delete;
  ClusterClient &operator=(const ClusterClient &) = delete;

  /// Schedules \p P; never blocks (routing happens on the loop thread).
  ClusterJob submit(Problem P, JobRequest R = {});

  /// Blocks until \p N links are Up or \p Timeout passes; true on success.
  /// Startup helper for tests and the CLI (submitting earlier is safe but
  /// routes past not-yet-connected shards).
  bool waitForWorkers(unsigned N, std::chrono::milliseconds Timeout) const;

  ClusterStats stats() const;
  SynthService &localService() { return *LocalSvc; }

private:
  friend class ClusterJob;
  struct Link;
  struct RJob;

  // All private methods below run on the loop thread.
  void connectLink(Link &L);
  void startHandshake(Link &L);
  void scheduleReconnect(Link &L);
  void onLinkEvent(Link &L, unsigned Events);
  void linkReadable(Link &L);
  void handleLinkPayload(Link &L, const std::string &Payload);
  void linkEstablished(Link &L);
  void linkFailed(Link &L, const char *Why);
  void flushLink(Link &L);
  void updateInterest(Link &L);
  void pumpBacklog(Link &L);
  void routeJob(RJob &J);
  void sendSolve(Link &L, RJob &J);
  void handleResult(Link &L, const WireMessage &M);
  void handleRemoteError(Link &L, const WireMessage &M);
  void submitLocal(RJob &J);
  void completeFromLocal(RJob &J);
  void completeJob(RJob &J, Solution S, std::string Source, double QueueMs,
                   double SolveMs, int Worker);
  void onDeadline(uint64_t ReqId);
  void cancelReq(uint64_t ReqId);
  /// Detaches \p J from whatever link holds it (outstanding or backlog).
  void detachFromLink(RJob &J);

  ComponentLibrary Lib; ///< for parsing remote program s-expressions
  /// The caller's bus (EOpts owns it); null when none was given.
  EventBus *Bus = nullptr;
  std::unique_ptr<Engine> Eng;
  std::unique_ptr<SynthService> LocalSvc;
  EngineOptions EOpts;
  ClusterOptions COpts;
  uint64_t OptionsDigest = 0;
  uint64_t CompatKey = 0;
  HashRing Ring;

  EventLoop Loop;
  std::thread LoopThread;
  std::atomic<uint64_t> NextReqId{1};
  std::atomic<bool> ShuttingDown{false};

  // Loop-thread-confined link and job tables.
  std::vector<std::unique_ptr<Link>> Links;
  std::unordered_map<uint64_t, std::shared_ptr<RJob>> Jobs; ///< by req id

  mutable Mutex StatsM;
  mutable CondVar StatsChanged; ///< waitForWorkers sleeps here
  ClusterStats Counters GUARDED_BY(StatsM);
};

} // namespace morpheus

#endif // MORPHEUS_CLUSTER_CLUSTERCLIENT_H
