//===- cluster/ClusterClient.cpp - Fingerprint-sharded coordinator --------===//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/ClusterClient.h"

#include "bus/EventBus.h"
#include "cluster/Handshake.h"
#include "io/Json.h"
#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "service/Fingerprint.h"
#include "service/WarmState.h"

#include <algorithm>
#include <chrono>

using namespace morpheus;
using std::chrono::steady_clock;

namespace {
/// How long a job refused by the full local queue waits before retrying
/// the submission (the local service drains continuously; the retry is a
/// poll, not a backoff ladder).
constexpr int LocalRetryMs = 50;
/// Remote delivery attempts before a job falls back to local solving.
constexpr int MaxAttempts = 3;
constexpr unsigned VirtualNodes = 64; ///< ring points per worker
/// The reconnect backoff doubles per failure up to this.
constexpr int ReconnectBackoffMaxMs = 5000;
/// Extra wall-clock past a job's deadline before the coordinator stops
/// waiting for a (possibly hung) worker and completes it as Timeout.
constexpr int DeadlineGraceMs = 2000;
/// Jobs one link may queue behind its in-flight cap.
constexpr size_t BacklogPerWorker = 256;
} // namespace

//===----------------------------------------------------------------------===//
// ClusterJob
//===----------------------------------------------------------------------===//

struct ClusterJob::State {
  mutable Mutex M;
  mutable CondVar CV;
  bool Done GUARDED_BY(M) = false;
  Solution Res GUARDED_BY(M);
  std::string Source GUARDED_BY(M);
  double QueueMs GUARDED_BY(M) = -1;
  double SolveMs GUARDED_BY(M) = -1;
  int Worker GUARDED_BY(M) = -1;
  int Attempts GUARDED_BY(M) = 0;
  ClusterClient *Owner = nullptr; ///< const after construction
  uint64_t ReqId = 0;             ///< const after construction
};

const Solution &ClusterJob::get() const {
  State &S = *St;
  UniqueLock Lock(S.M);
  S.CV.wait(Lock, [&S] { return S.Done; });
  return S.Res;
}

bool ClusterJob::waitFor(std::chrono::milliseconds Timeout) const {
  State &S = *St;
  UniqueLock Lock(S.M);
  return S.CV.wait_for(Lock, Timeout, [&S] { return S.Done; });
}

void ClusterJob::cancel() const {
  if (!St)
    return;
  ClusterClient *O = St->Owner;
  uint64_t Id = St->ReqId;
  O->Loop.post([O, Id] { O->cancelReq(Id); });
}

std::string ClusterJob::source() const {
  MutexLock Lock(St->M);
  return St->Source;
}

double ClusterJob::queueMs() const {
  MutexLock Lock(St->M);
  return St->QueueMs;
}

double ClusterJob::solveMs() const {
  MutexLock Lock(St->M);
  return St->SolveMs;
}

int ClusterJob::worker() const {
  MutexLock Lock(St->M);
  return St->Worker;
}

int ClusterJob::attempts() const {
  MutexLock Lock(St->M);
  return St->Attempts;
}

//===----------------------------------------------------------------------===//
// Internal state
//===----------------------------------------------------------------------===//

/// One worker connection and everything scheduled onto it. Loop-thread
/// confined (like WorkerNode's Conn).
struct ClusterClient::Link {
  enum class Phase {
    Down,        ///< no socket; reconnect timer may be pending
    Connecting,  ///< non-blocking connect in flight
    Handshaking, ///< Hello sent, HelloAck awaited
    Up,          ///< jobs flow
    Refused      ///< handshake rejected: incompatible peer, never retried
  };

  int Index = -1;
  SockAddr Addr;
  Phase St = Phase::Down;
  int Fd = -1;
  FrameDecoder Dec;
  std::string OutBuf;
  /// Req ids sent and awaiting a Result/Error (the in-flight cap counts
  /// these).
  std::vector<uint64_t> Outstanding;
  /// Req ids routed here but not yet sent (cap reached, or still
  /// connecting).
  std::deque<uint64_t> Backlog;
  int BackoffMs = 0;
  uint64_t RetryTimer = 0;   ///< reconnect backoff; 0 = none
  uint64_t ConnectTimer = 0; ///< connect timeout; 0 = none
  std::string Name;          ///< announced in the HelloAck
};

/// One routed job. Loop-thread confined except the shared completion
/// State the handle watches.
struct ClusterClient::RJob {
  uint64_t ReqId = 0;
  std::shared_ptr<ClusterJob::State> St;
  Problem Prob;         ///< kept for local fail-back
  std::string ProbJson; ///< serialized once, on the submitting thread
  uint64_t Fp = 0;
  int Priority = 0;
  std::optional<steady_clock::time_point> Deadline;
  std::chrono::milliseconds DeadlineBudget{0};
  int Attempts = 0;        ///< remote deliveries consumed
  int AssignedWorker = -1; ///< link holding it (outstanding or backlog)
  bool SentRemote = false; ///< on AssignedWorker's Outstanding list
  bool Local = false;      ///< handed to the local service
  JobHandle LocalHandle;
  uint64_t DeadlineTimer = 0;   ///< grace timer; 0 = none
  uint64_t LocalRetryTimer = 0; ///< full-local-queue retry; 0 = none
};

static void eraseValue(std::vector<uint64_t> &V, uint64_t X) {
  V.erase(std::remove(V.begin(), V.end(), X), V.end());
}

static void eraseValue(std::deque<uint64_t> &D, uint64_t X) {
  D.erase(std::remove(D.begin(), D.end(), X), D.end());
}

//===----------------------------------------------------------------------===//
// Construction / destruction
//===----------------------------------------------------------------------===//

ClusterClient::ClusterClient(ComponentLibrary LibIn, EngineOptions EOptsIn,
                             ServiceOptions SOpts, ClusterOptions COptsIn)
    : Lib(std::move(LibIn)), EOpts(std::move(EOptsIn)),
      COpts(std::move(COptsIn)),
      Ring(unsigned(COpts.Workers.size()), VirtualNodes) {
  Bus = EOpts.eventBus().get();
  OptionsDigest = clusterOptionsDigest(EOpts);
  CompatKey = warmStateCompatKey(Lib, EOpts.config());
  Eng = std::make_unique<Engine>(Lib, EOpts);
  {
    MutexLock Lock(StatsM);
    Counters.PerWorkerForwarded.assign(COpts.Workers.size(), 0);
  }

  LocalSvc = std::make_unique<SynthService>(*Eng, SOpts);

  Links.reserve(COpts.Workers.size());
  for (size_t I = 0; I != COpts.Workers.size(); ++I) {
    auto L = std::make_unique<Link>();
    L->Index = int(I);
    L->Addr = COpts.Workers[I];
    L->BackoffMs = COpts.ReconnectBackoffMs;
    Links.push_back(std::move(L));
  }
  Loop.post([this] {
    for (auto &L : Links)
      connectLink(*L);
  });
  LoopThread = std::thread([this] { Loop.run(); });
}

ClusterClient::~ClusterClient() {
  ShuttingDown.store(true);
  Loop.post([this] {
    // Complete every pending handle: a blocked get() must not outlive the
    // client. Local handles are cancelled too, freeing service slots.
    std::vector<std::shared_ptr<RJob>> Pending;
    Pending.reserve(Jobs.size());
    for (auto &KV : Jobs)
      Pending.push_back(KV.second);
    for (auto &J : Pending) {
      if (J->Local && J->LocalHandle.valid())
        J->LocalHandle.cancel();
      Solution S;
      S.Result = Outcome::Cancelled;
      if (Jobs.count(J->ReqId))
        completeJob(*J, std::move(S), "shutdown", -1, -1, -1);
    }
    for (auto &L : Links) {
      if (L->Fd >= 0) {
        Loop.removeFd(L->Fd);
        closeFd(L->Fd);
        L->Fd = -1;
      }
    }
    Loop.stop();
  });
  LoopThread.join();
  LocalSvc.reset(); // its onDone hooks post into Loop: die before it
}

//===----------------------------------------------------------------------===//
// Submission
//===----------------------------------------------------------------------===//

ClusterJob ClusterClient::submit(Problem P, JobRequest R) {
  auto St = std::make_shared<ClusterJob::State>();
  St->Owner = this;
  St->ReqId = NextReqId.fetch_add(1, std::memory_order_relaxed);

  auto J = std::make_shared<RJob>();
  J->ReqId = St->ReqId;
  J->St = St;
  // Fingerprint and serialize on the submitting thread: both walk the
  // whole problem, and the loop thread must stay cheap.
  J->Fp = problemFingerprint(P, EOpts);
  J->ProbJson = problemToJson(P).dump();
  J->Prob = std::move(P);
  J->Priority = R.priority();
  if (R.deadline().count() > 0) {
    J->DeadlineBudget = R.deadline();
    J->Deadline = steady_clock::now() + R.deadline();
  }
  {
    MutexLock Lock(StatsM);
    ++Counters.Submitted;
  }

  if (ShuttingDown.load()) {
    MutexLock Lock(St->M);
    St->Res.Result = Outcome::Cancelled;
    St->Source = "shutdown";
    St->Done = true;
    St->CV.notify_all();
    return ClusterJob(St);
  }

  Loop.post([this, J] {
    RJob &Ref = *J;
    Jobs.emplace(Ref.ReqId, J);
    if (Ref.Deadline) {
      auto Now = steady_clock::now();
      int64_t Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       *Ref.Deadline - Now)
                       .count() +
                   DeadlineGraceMs;
      Ref.DeadlineTimer =
          Loop.addTimer(std::max<int64_t>(Ms, 0),
                        [this, Id = Ref.ReqId] { onDeadline(Id); });
    }
    routeJob(Ref);
  });
  return ClusterJob(St);
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

void ClusterClient::routeJob(RJob &J) {
  J.SentRemote = false;
  J.AssignedWorker = -1;
  if (!Links.empty() && J.Attempts < MaxAttempts) {
    std::vector<int> Order = Ring.walk(J.Fp, Links.size());
    Link *BacklogTo = nullptr;
    for (int W : Order) {
      Link &L = *Links[size_t(W)];
      switch (L.St) {
      case Link::Phase::Refused:
      case Link::Phase::Down:
        continue; // never / not currently reachable
      case Link::Phase::Up:
        if (L.Outstanding.size() < COpts.MaxInflightPerWorker) {
          sendSolve(L, J);
          return;
        }
        if (!BacklogTo && L.Backlog.size() < BacklogPerWorker)
          BacklogTo = &L; // its cap will free as results return
        continue;
      case Link::Phase::Connecting:
      case Link::Phase::Handshaking:
        // Plausible soon: park the job here rather than solving it
        // locally the moment the cluster starts up. A failed connect
        // reroutes the backlog (linkFailed), so nothing is stranded.
        if (!BacklogTo && L.Backlog.size() < BacklogPerWorker)
          BacklogTo = &L;
        continue;
      }
    }
    if (BacklogTo) {
      J.AssignedWorker = BacklogTo->Index;
      BacklogTo->Backlog.push_back(J.ReqId);
      return;
    }
  }
  submitLocal(J);
}

void ClusterClient::sendSolve(Link &L, RJob &J) {
  uint64_t DeadlineMs = 0;
  if (J.Deadline) {
    auto Now = steady_clock::now();
    if (Now >= *J.Deadline) {
      // The budget died in a backlog / on a failed link: complete as the
      // timeout it is instead of burning a worker on it.
      Solution S;
      S.Result = Outcome::Timeout;
      S.Seconds = double(J.DeadlineBudget.count()) / 1000.0;
      {
        MutexLock Lock(StatsM);
        ++Counters.DeadlineExpired;
      }
      completeJob(J, std::move(S), "deadline", -1, -1, -1);
      return;
    }
    // The worker's reaper enforces the remaining budget, measured from
    // *its* submission — queue time already spent here is subtracted.
    DeadlineMs = uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                              *J.Deadline - Now)
                              .count());
    if (DeadlineMs == 0)
      DeadlineMs = 1;
  }

  ++J.Attempts;
  J.SentRemote = true;
  J.AssignedWorker = L.Index;
  L.Outstanding.push_back(J.ReqId);
  {
    MutexLock Lock(StatsM);
    ++Counters.Forwarded;
    ++Counters.PerWorkerForwarded[size_t(L.Index)];
  }
  if (Bus && Bus->wants(EventKind::JobForwarded))
    Bus->publish(Event(EventKind::JobForwarded, J.Fp, J.ReqId, J.Fp,
                       uint64_t(L.Index), uint64_t(J.Attempts)));

  WireMessage M;
  M.Type = MsgType::Solve;
  M.ReqId = J.ReqId;
  M.Priority = J.Priority;
  M.DeadlineMs = DeadlineMs;
  M.ProblemJson = J.ProbJson;
  L.OutBuf += encodeFrame(encodeMessage(M));
  // May fail and reroute J (and everything else on L) via linkFailed — no
  // touching J past this point.
  flushLink(L);
}

void ClusterClient::submitLocal(RJob &J) {
  J.SentRemote = false;
  J.AssignedWorker = -1;
  JobRequest R;
  R.priority(J.Priority);
  if (J.Deadline) {
    auto Now = steady_clock::now();
    if (Now >= *J.Deadline) {
      Solution S;
      S.Result = Outcome::Timeout;
      S.Seconds = double(J.DeadlineBudget.count()) / 1000.0;
      {
        MutexLock Lock(StatsM);
        ++Counters.DeadlineExpired;
      }
      completeJob(J, std::move(S), "deadline", -1, -1, -1);
      return;
    }
    R.deadline(std::chrono::duration_cast<std::chrono::milliseconds>(
        *J.Deadline - Now));
  }
  // The hook only posts, so it runs on the loop thread after LocalHandle
  // is set below, even for a cache hit completed inside trySubmit.
  R.onDone([this, Id = J.ReqId] {
    Loop.post([this, Id] {
      auto It = Jobs.find(Id);
      if (It != Jobs.end())
        completeFromLocal(*It->second);
    });
  });
  // trySubmit: a full queue must not block the loop thread. Retry on a
  // short timer — deadline shedding stays correct because the grace timer
  // (and the deadline re-check above) keeps running meanwhile.
  std::optional<JobHandle> H = LocalSvc->trySubmit(J.Prob, R);
  if (!H) {
    J.LocalRetryTimer = Loop.addTimer(LocalRetryMs, [this, Id = J.ReqId] {
      auto It = Jobs.find(Id);
      if (It == Jobs.end())
        return;
      It->second->LocalRetryTimer = 0;
      submitLocal(*It->second);
    });
    return;
  }
  J.Local = true;
  J.LocalHandle = *H;
  {
    MutexLock Lock(StatsM);
    ++Counters.LocalSolves;
  }
}

void ClusterClient::completeFromLocal(RJob &J) {
  Solution S = J.LocalHandle.get(); // Done: returns immediately
  std::string Source(resultSourceName(J.LocalHandle.source()));
  double QMs = J.LocalHandle.queueMs();
  double SMs = J.LocalHandle.solveMs();
  completeJob(J, std::move(S), std::move(Source), QMs, SMs, /*Worker=*/-1);
}

void ClusterClient::completeJob(RJob &J, Solution S, std::string Source,
                                double QueueMs, double SolveMs, int Worker) {
  if (J.DeadlineTimer) {
    Loop.cancelTimer(J.DeadlineTimer);
    J.DeadlineTimer = 0;
  }
  if (J.LocalRetryTimer) {
    Loop.cancelTimer(J.LocalRetryTimer);
    J.LocalRetryTimer = 0;
  }
  detachFromLink(J);
  std::shared_ptr<ClusterJob::State> St = J.St;
  int Attempts = J.Attempts;
  Jobs.erase(J.ReqId); // J may dangle past this line
  {
    MutexLock Lock(St->M);
    if (!St->Done) {
      St->Res = std::move(S);
      St->Source = std::move(Source);
      St->QueueMs = QueueMs;
      St->SolveMs = SolveMs;
      St->Worker = Worker;
      St->Attempts = Attempts;
      St->Done = true;
    }
  }
  St->CV.notify_all();
}

void ClusterClient::detachFromLink(RJob &J) {
  if (J.AssignedWorker < 0)
    return;
  Link &L = *Links[size_t(J.AssignedWorker)];
  eraseValue(L.Outstanding, J.ReqId);
  eraseValue(L.Backlog, J.ReqId);
  J.AssignedWorker = -1;
  J.SentRemote = false;
}

//===----------------------------------------------------------------------===//
// Timers
//===----------------------------------------------------------------------===//

void ClusterClient::onDeadline(uint64_t ReqId) {
  auto It = Jobs.find(ReqId);
  if (It == Jobs.end())
    return;
  std::shared_ptr<RJob> J = It->second;
  J->DeadlineTimer = 0;
  // Grace expired past the deadline: the shard holding the job is hung or
  // unreachable-but-undetected. Tell it to stop (best effort) and answer
  // the caller — the deadline contract beats the lost work.
  if (J->SentRemote && J->AssignedWorker >= 0) {
    Link &L = *Links[size_t(J->AssignedWorker)];
    if (L.St == Link::Phase::Up) {
      WireMessage C;
      C.Type = MsgType::Cancel;
      C.ReqId = ReqId;
      L.OutBuf += encodeFrame(encodeMessage(C));
      flushLink(L); // may fail the link and reroute J...
    }
  }
  if (!Jobs.count(ReqId))
    return; // ...and a reroute may even have completed it
  if (J->Local && J->LocalHandle.valid())
    J->LocalHandle.cancel();
  Solution S;
  S.Result = Outcome::Timeout;
  S.Seconds = double(J->DeadlineBudget.count()) / 1000.0;
  {
    MutexLock Lock(StatsM);
    ++Counters.DeadlineExpired;
  }
  completeJob(*J, std::move(S), "deadline", -1, -1,
              J->SentRemote ? J->AssignedWorker : -1);
}

void ClusterClient::cancelReq(uint64_t ReqId) {
  auto It = Jobs.find(ReqId);
  if (It == Jobs.end())
    return; // already completed
  std::shared_ptr<RJob> J = It->second;
  if (J->SentRemote && J->AssignedWorker >= 0) {
    Link &L = *Links[size_t(J->AssignedWorker)];
    if (L.St == Link::Phase::Up) {
      WireMessage C;
      C.Type = MsgType::Cancel;
      C.ReqId = ReqId;
      L.OutBuf += encodeFrame(encodeMessage(C));
      flushLink(L);
    }
  }
  if (!Jobs.count(ReqId))
    return;
  if (J->Local && J->LocalHandle.valid())
    J->LocalHandle.cancel();
  Solution S;
  S.Result = Outcome::Cancelled;
  {
    MutexLock Lock(StatsM);
    ++Counters.Cancelled;
  }
  completeJob(*J, std::move(S), "cancelled", -1, -1, -1);
}

//===----------------------------------------------------------------------===//
// Link lifecycle
//===----------------------------------------------------------------------===//

void ClusterClient::connectLink(Link &L) {
  if (ShuttingDown.load() || L.St == Link::Phase::Refused)
    return;
  bool InProgress = false;
  std::string Err;
  int Fd = connectTcp(L.Addr, InProgress, &Err);
  if (Fd < 0) {
    scheduleReconnect(L);
    return;
  }
  L.Fd = Fd;
  L.Dec = FrameDecoder();
  L.OutBuf.clear();
  L.St = Link::Phase::Connecting;
  Loop.addFd(Fd, EvRead | EvWrite, [this, Idx = L.Index](unsigned Events) {
    onLinkEvent(*Links[size_t(Idx)], Events);
  });
  L.ConnectTimer =
      Loop.addTimer(COpts.ConnectTimeoutMs, [this, Idx = L.Index] {
        Link &T = *Links[size_t(Idx)];
        T.ConnectTimer = 0;
        if (T.St == Link::Phase::Connecting ||
            T.St == Link::Phase::Handshaking)
          linkFailed(T, "connect timeout");
      });
  if (!InProgress)
    startHandshake(L);
}

void ClusterClient::startHandshake(Link &L) {
  L.St = Link::Phase::Handshaking;
  WireMessage H;
  H.Type = MsgType::Hello;
  H.Version = WireVersion;
  H.OptionsDigest = OptionsDigest;
  H.CompatKey = CompatKey;
  H.Text = "coordinator";
  L.OutBuf += encodeFrame(encodeMessage(H));
  flushLink(L);
}

void ClusterClient::scheduleReconnect(Link &L) {
  if (ShuttingDown.load() || L.St == Link::Phase::Refused || L.RetryTimer)
    return;
  int Delay = L.BackoffMs;
  L.BackoffMs = std::min(L.BackoffMs * 2, ReconnectBackoffMaxMs);
  L.RetryTimer = Loop.addTimer(Delay, [this, Idx = L.Index] {
    Link &T = *Links[size_t(Idx)];
    T.RetryTimer = 0;
    if (T.St == Link::Phase::Down)
      connectLink(T);
  });
}

void ClusterClient::onLinkEvent(Link &L, unsigned Events) {
  if (Events & EvError) {
    linkFailed(L, "socket error");
    return;
  }
  if (L.St == Link::Phase::Connecting && (Events & EvWrite)) {
    std::string Err;
    if (!connectFinished(L.Fd, &Err)) {
      linkFailed(L, "connect failed");
      return;
    }
    startHandshake(L);
    if (L.Fd < 0)
      return; // the handshake flush failed the link
  } else if (Events & EvWrite) {
    flushLink(L);
    if (L.Fd < 0)
      return;
  }
  if (Events & EvRead)
    linkReadable(L);
}

void ClusterClient::linkReadable(Link &L) {
  for (;;) {
    size_t N = 0;
    std::string Chunk;
    IoStatus St = readSome(L.Fd, Chunk, 1 << 16, N);
    if (St == IoStatus::Ok) {
      L.Dec.feed(Chunk);
      continue;
    }
    if (St == IoStatus::WouldBlock)
      break;
    linkFailed(L, "peer closed"); // EOF or hard error
    return;
  }
  std::string Payload;
  for (;;) {
    FrameDecoder::Status St = L.Dec.take(Payload);
    if (St == FrameDecoder::Status::NeedMore)
      break;
    if (St == FrameDecoder::Status::Corrupt) {
      linkFailed(L, "corrupt frame");
      return;
    }
    handleLinkPayload(L, Payload);
    if (L.Fd < 0)
      return; // the handler failed the link
  }
}

void ClusterClient::handleLinkPayload(Link &L, const std::string &Payload) {
  std::optional<WireMessage> M = decodeMessage(Payload);
  if (!M) {
    linkFailed(L, "undecodable message");
    return;
  }
  switch (M->Type) {
  case MsgType::HelloAck:
    if (L.St != Link::Phase::Handshaking) {
      linkFailed(L, "unexpected HelloAck");
      return;
    }
    if (!M->Accepted) {
      // Incompatible peer (options digest / compat key / wire version):
      // permanent — retrying cannot change the answer. Reroute whatever
      // was parked here; the ring walk now skips this link.
      if (L.ConnectTimer) {
        Loop.cancelTimer(L.ConnectTimer);
        L.ConnectTimer = 0;
      }
      Loop.removeFd(L.Fd);
      closeFd(L.Fd);
      L.Fd = -1;
      L.St = Link::Phase::Refused;
      std::deque<uint64_t> Parked;
      Parked.swap(L.Backlog);
      for (uint64_t Id : Parked) {
        auto It = Jobs.find(Id);
        if (It == Jobs.end())
          continue;
        It->second->AssignedWorker = -1;
        routeJob(*It->second);
      }
      return;
    }
    linkEstablished(L);
    L.Name = M->Text;
    return;
  case MsgType::Result:
    handleResult(L, *M);
    return;
  case MsgType::Error:
    handleRemoteError(L, *M);
    return;
  case MsgType::Hello:
  case MsgType::Solve:
  case MsgType::Cancel:
    // Worker-bound messages arriving at the coordinator: a confused peer.
    linkFailed(L, "unexpected message");
    return;
  }
}

void ClusterClient::linkEstablished(Link &L) {
  if (L.ConnectTimer) {
    Loop.cancelTimer(L.ConnectTimer);
    L.ConnectTimer = 0;
  }
  L.St = Link::Phase::Up;
  L.BackoffMs = COpts.ReconnectBackoffMs; // a clean handshake resets backoff
  {
    MutexLock Lock(StatsM);
    ++Counters.WorkerUpEvents;
    ++Counters.WorkersUp;
  }
  StatsChanged.notify_all();
  if (Bus && Bus->wants(EventKind::WorkerUp))
    Bus->publish(Event(EventKind::WorkerUp, 0, uint64_t(L.Index)));
  pumpBacklog(L);
}

void ClusterClient::linkFailed(Link &L, const char *) {
  bool WasUp = L.St == Link::Phase::Up;
  if (L.ConnectTimer) {
    Loop.cancelTimer(L.ConnectTimer);
    L.ConnectTimer = 0;
  }
  if (L.Fd >= 0) {
    Loop.removeFd(L.Fd);
    closeFd(L.Fd);
    L.Fd = -1;
  }
  L.Dec = FrameDecoder();
  L.OutBuf.clear();
  L.St = Link::Phase::Down;

  std::vector<uint64_t> Orphans(L.Outstanding.begin(), L.Outstanding.end());
  Orphans.insert(Orphans.end(), L.Backlog.begin(), L.Backlog.end());
  size_t InFlight = L.Outstanding.size();
  L.Outstanding.clear();
  L.Backlog.clear();

  if (WasUp) {
    MutexLock Lock(StatsM);
    ++Counters.WorkerDownEvents;
    if (Counters.WorkersUp)
      --Counters.WorkersUp;
    Counters.Failovers += Orphans.size();
  }
  if (WasUp) {
    StatsChanged.notify_all();
    if (Bus && Bus->wants(EventKind::WorkerDown))
      Bus->publish(
          Event(EventKind::WorkerDown, 0, uint64_t(L.Index), InFlight));
  }

  // Reroute every job this link held. Attempts were counted at send time,
  // so a job bounced off enough dead links lands on the local service.
  for (uint64_t Id : Orphans) {
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      continue;
    RJob &J = *It->second;
    J.SentRemote = false;
    J.AssignedWorker = -1;
    routeJob(J);
  }
  scheduleReconnect(L);
}

void ClusterClient::flushLink(Link &L) {
  while (!L.OutBuf.empty()) {
    size_t N = 0;
    IoStatus St = writeSome(L.Fd, L.OutBuf, N);
    if (St == IoStatus::Ok) {
      L.OutBuf.erase(0, N);
      continue;
    }
    if (St == IoStatus::WouldBlock)
      break;
    linkFailed(L, "write failed");
    return;
  }
  updateInterest(L);
}

void ClusterClient::updateInterest(Link &L) {
  if (L.Fd >= 0)
    Loop.modifyFd(L.Fd, L.OutBuf.empty() ? EvRead : (EvRead | EvWrite));
}

void ClusterClient::pumpBacklog(Link &L) {
  while (L.St == Link::Phase::Up && !L.Backlog.empty() &&
         L.Outstanding.size() < COpts.MaxInflightPerWorker) {
    uint64_t Id = L.Backlog.front();
    L.Backlog.pop_front();
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      continue; // completed (deadline, cancel) while parked
    sendSolve(L, *It->second); // may fail the link; the loop guard exits
  }
}

//===----------------------------------------------------------------------===//
// Remote completions
//===----------------------------------------------------------------------===//

void ClusterClient::handleResult(Link &L, const WireMessage &M) {
  eraseValue(L.Outstanding, M.ReqId);
  auto It = Jobs.find(M.ReqId);
  if (It == Jobs.end()) {
    pumpBacklog(L); // late answer for a cancelled/expired job: slot freed
    return;
  }
  std::shared_ptr<RJob> J = It->second;
  if (!J->SentRemote || J->AssignedWorker != L.Index) {
    // Stale: the job was rerouted off this link (it answered after being
    // declared dead). Whoever holds it now will answer.
    pumpBacklog(L);
    return;
  }

  // An out-of-range outcome is garbage; an unsolicited Cancelled is a
  // worker giving up for its own reasons (e.g. its shutdown path) — the
  // coordinator completes its own cancels before any Result could land
  // here, so this job still wants an answer. Both fail over.
  bool Bad = M.OutcomeCode > uint32_t(Outcome::Exhausted) ||
             M.OutcomeCode == uint32_t(Outcome::Cancelled);
  Solution S;
  if (!Bad) {
    S.Result = Outcome(M.OutcomeCode);
    S.Seconds = M.Seconds;
    S.Stats.HypothesesExplored = M.Hypotheses;
    S.Stats.CandidatesChecked = M.Candidates;
    if (!M.Program.empty()) {
      std::string Err;
      S.Program = parseSexp(M.Program, Lib, &Err);
      if (!S.Program && S.Result == Outcome::Solved)
        Bad = true; // "solved" but the program does not parse
    }
  }
  if (Bad) {
    // The shard answered garbage; trust nothing from it for this job and
    // solve locally (skipping further remote attempts).
    {
      MutexLock Lock(StatsM);
      ++Counters.RemoteErrors;
    }
    J->Attempts = MaxAttempts;
    J->SentRemote = false;
    J->AssignedWorker = -1;
    routeJob(*J);
    pumpBacklog(L);
    return;
  }

  {
    MutexLock Lock(StatsM);
    ++Counters.RemoteCompleted;
  }
  completeJob(*J, std::move(S), M.Source, M.QueueMs, M.SolveMs, L.Index);
  pumpBacklog(L);
}

void ClusterClient::handleRemoteError(Link &L, const WireMessage &M) {
  eraseValue(L.Outstanding, M.ReqId);
  auto It = Jobs.find(M.ReqId);
  if (It == Jobs.end()) {
    pumpBacklog(L);
    return;
  }
  std::shared_ptr<RJob> J = It->second;
  if (!J->SentRemote || J->AssignedWorker != L.Index) {
    pumpBacklog(L);
    return;
  }
  // A worker-side refusal ("queue full", "bad problem") is not a link
  // failure — the connection stays up — but re-sending the same bytes is
  // pointless, so the job goes straight to the local service.
  {
    MutexLock Lock(StatsM);
    ++Counters.RemoteErrors;
  }
  J->Attempts = MaxAttempts;
  J->SentRemote = false;
  J->AssignedWorker = -1;
  routeJob(*J);
  pumpBacklog(L);
}

//===----------------------------------------------------------------------===//
// Observation
//===----------------------------------------------------------------------===//

ClusterStats ClusterClient::stats() const {
  MutexLock Lock(StatsM);
  return Counters;
}

bool ClusterClient::waitForWorkers(unsigned N,
                                   std::chrono::milliseconds Timeout) const {
  UniqueLock Lock(StatsM);
  return StatsChanged.wait_for(Lock, Timeout,
                               [this, N] { return Counters.WorkersUp >= N; });
}
