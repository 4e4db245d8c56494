//===- cluster/WorkerNode.cpp - TCP worker around SynthService ------------===//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/WorkerNode.h"

#include "cluster/Handshake.h"
#include "io/Json.h"
#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "net/Wire.h"
#include "service/WarmState.h"

#include <algorithm>
#include <cmath>

using namespace morpheus;

WorkerNode::WorkerNode(ComponentLibrary Lib, EngineOptions EOpts,
                       ServiceOptions SOpts)
    : WorkerNode(std::move(Lib), std::move(EOpts), std::move(SOpts),
                 Options()) {}

WorkerNode::WorkerNode(ComponentLibrary Lib, EngineOptions EOpts,
                       ServiceOptions SOpts, Options OptsIn)
    : Opts(std::move(OptsIn)) {
  if (Opts.Listen.Host.empty())
    Opts.Listen.Host = "127.0.0.1";
  OptionsDigest = clusterOptionsDigest(EOpts);
  CompatKey = warmStateCompatKey(Lib, EOpts.config());
  Eng = std::make_unique<Engine>(std::move(Lib), EOpts);
  Svc = std::make_unique<SynthService>(*Eng, SOpts);
}

WorkerNode::~WorkerNode() {
  stop();
  Svc.reset(); // its onDone hooks post into Loop: die before it
}

bool WorkerNode::start(std::string *Err) {
  if (Started)
    return true;
  ListenFd = listenTcp(Opts.Listen, &BoundPort, Err);
  if (ListenFd < 0)
    return false;
  Loop.post([this] {
    Loop.addFd(ListenFd, EvRead, [this](unsigned) { onAcceptable(); });
  });
  LoopThread = std::thread([this] { Loop.run(); });
  Started = true;
  return true;
}

void WorkerNode::stop() {
  if (!Started)
    return;
  Loop.post([this] {
    Loop.removeFd(ListenFd);
    std::vector<int> Fds;
    Fds.reserve(Conns.size());
    for (auto &KV : Conns)
      Fds.push_back(KV.first);
    for (int Fd : Fds)
      closeConn(Fd, /*Malformed=*/false);
    Loop.stop();
  });
  LoopThread.join();
  closeFd(ListenFd);
  ListenFd = -1;
  Started = false;
}

WorkerNodeStats WorkerNode::stats() const {
  MutexLock Lock(StatsM);
  return Counters;
}

void WorkerNode::onAcceptable() {
  for (;;) {
    int Fd = acceptTcp(ListenFd);
    if (Fd < 0)
      return;
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    Conns.emplace(Fd, std::move(C));
    Loop.addFd(Fd, EvRead,
               [this, Fd](unsigned Events) { onConnEvent(Fd, Events); });
    MutexLock Lock(StatsM);
    ++Counters.Connections;
  }
}

void WorkerNode::onConnEvent(int Fd, unsigned Events) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  Conn &C = *It->second;

  if (Events & EvError) {
    closeConn(Fd, /*Malformed=*/false);
    return;
  }
  if (Events & EvWrite) {
    flushConn(C);
    if (Conns.find(Fd) == Conns.end())
      return; // flush closed it (Closing connection drained)
  }
  if (!(Events & EvRead))
    return;

  for (;;) {
    size_t N = 0;
    std::string Chunk;
    IoStatus St = readSome(Fd, Chunk, 1 << 16, N);
    if (St == IoStatus::Ok) {
      C.Dec.feed(Chunk);
      continue;
    }
    if (St == IoStatus::WouldBlock)
      break;
    closeConn(Fd, /*Malformed=*/false); // EOF or hard error
    return;
  }

  std::string Payload;
  for (;;) {
    FrameDecoder::Status St = C.Dec.take(Payload);
    if (St == FrameDecoder::Status::NeedMore)
      break;
    if (St == FrameDecoder::Status::Corrupt) {
      closeConn(Fd, /*Malformed=*/true);
      return;
    }
    {
      MutexLock Lock(StatsM);
      ++Counters.FramesIn;
    }
    handlePayload(C, Payload);
    if (Conns.find(Fd) == Conns.end())
      return; // the payload handler closed the connection
  }
}

void WorkerNode::handlePayload(Conn &C, const std::string &Payload) {
  std::optional<WireMessage> M = decodeMessage(Payload);
  if (!M) {
    closeConn(C.Fd, /*Malformed=*/true);
    return;
  }
  switch (M->Type) {
  case MsgType::Hello:
    handleHello(C, *M);
    return;
  case MsgType::Solve:
    if (!C.Greeted) { // protocol violation: job before handshake
      closeConn(C.Fd, /*Malformed=*/true);
      return;
    }
    handleSolve(C, *M);
    return;
  case MsgType::Cancel: {
    auto It = C.ReqToJob.find(M->ReqId);
    if (It == C.ReqToJob.end())
      return; // raced its own completion; nothing to do
    auto JIt = JobsById.find(It->second);
    if (JIt != JobsById.end())
      JIt->second.Handle.cancel(); // the Result (Cancelled) flows back
                                   // through the handle's onDone
    return;
  }
  case MsgType::HelloAck:
  case MsgType::Result:
  case MsgType::Error:
    // Coordinator-bound messages arriving at a worker: a confused peer.
    closeConn(C.Fd, /*Malformed=*/true);
    return;
  }
}

void WorkerNode::handleHello(Conn &C, const WireMessage &M) {
  WireMessage Ack;
  Ack.Type = MsgType::HelloAck;
  Ack.Version = WireVersion;
  if (M.Version != WireVersion) {
    Ack.Accepted = 0;
    Ack.Text = "wire version mismatch";
  } else if (M.CompatKey != CompatKey) {
    Ack.Accepted = 0;
    Ack.Text = "component library / spec level mismatch";
  } else if (M.OptionsDigest != OptionsDigest) {
    Ack.Accepted = 0;
    Ack.Text = "engine options mismatch";
  } else {
    Ack.Accepted = 1;
    Ack.Text = Opts.Name;
  }
  if (!Ack.Accepted) {
    C.Closing = true; // flush the refusal, then drop the connection
    MutexLock Lock(StatsM);
    ++Counters.HandshakesRefused;
  } else {
    C.Greeted = true;
  }
  sendMsg(C, Ack);
}

void WorkerNode::handleSolve(Conn &C, const WireMessage &M) {
  auto RespondError = [&](const std::string &Why) {
    WireMessage E;
    E.Type = MsgType::Error;
    E.ReqId = M.ReqId;
    E.Text = Why;
    sendMsg(C, E);
  };

  std::string Err;
  std::optional<JsonValue> Doc = parseJson(M.ProblemJson, &Err);
  std::optional<Problem> P;
  if (Doc)
    P = problemFromJson(*Doc, &Err);
  if (!P) {
    RespondError("bad problem: " + Err);
    return;
  }

  JobRequest R;
  // Same clamps as the JSON-lines front door: these numbers crossed a
  // network boundary, however well-behaved our own coordinator is.
  R.priority(
      int(std::min<int64_t>(1000000, std::max<int64_t>(-1000000, M.Priority))));
  if (M.DeadlineMs > 0)
    R.deadline(std::chrono::milliseconds(
        std::min<uint64_t>(M.DeadlineMs, 86400000)));

  // Keyed before submitting: a cache hit completes inside trySubmit. The
  // hook only posts, so the key is registered below before it can run.
  uint64_t Key = NextJobKey++;
  R.onDone([this, Key] { Loop.post([this, Key] { sendResultFor(Key); }); });

  // trySubmit: a full queue must refuse, not block the loop thread.
  std::optional<JobHandle> H = Svc->trySubmit(std::move(*P), R);
  if (!H) {
    RespondError("queue full");
    return;
  }
  {
    MutexLock Lock(StatsM);
    ++Counters.JobsAccepted;
  }
  C.ReqToJob[M.ReqId] = Key;
  JobsById[Key] = PendingJob{C.Fd, M.ReqId, *H};
}

void WorkerNode::sendResultFor(uint64_t Key) {
  auto It = JobsById.find(Key);
  if (It == JobsById.end())
    return; // its connection died first
  PendingJob P = std::move(It->second);
  JobsById.erase(It);
  auto CIt = Conns.find(P.Fd);
  if (CIt == Conns.end())
    return;
  Conn &C = *CIt->second;
  C.ReqToJob.erase(P.ReqId);

  const Solution &S = P.Handle.get(); // Done: returns immediately
  WireMessage M;
  M.Type = MsgType::Result;
  M.ReqId = P.ReqId;
  M.OutcomeCode = uint32_t(S.Result);
  M.Source = std::string(resultSourceName(P.Handle.source()));
  M.Seconds = S.Seconds;
  M.QueueMs = P.Handle.queueMs();
  M.SolveMs = P.Handle.solveMs();
  M.Hypotheses = S.Stats.HypothesesExplored;
  M.Candidates = S.Stats.CandidatesChecked;
  if (S)
    M.Program = printSexp(S.Program);
  {
    // Counted before the send: a client that has read its Result must
    // already see it in stats().
    MutexLock Lock(StatsM);
    ++Counters.JobsAnswered;
  }
  sendMsg(C, M);
}

void WorkerNode::sendMsg(Conn &C, const WireMessage &M) {
  C.OutBuf += encodeFrame(encodeMessage(M));
  flushConn(C);
}

void WorkerNode::flushConn(Conn &C) {
  while (!C.OutBuf.empty()) {
    size_t N = 0;
    IoStatus St = writeSome(C.Fd, C.OutBuf, N);
    if (St == IoStatus::Ok) {
      C.OutBuf.erase(0, N);
      continue;
    }
    if (St == IoStatus::WouldBlock)
      break;
    closeConn(C.Fd, /*Malformed=*/false);
    return;
  }
  if (C.OutBuf.empty() && C.Closing) {
    closeConn(C.Fd, /*Malformed=*/false);
    return;
  }
  updateInterest(C);
}

void WorkerNode::updateInterest(Conn &C) {
  Loop.modifyFd(C.Fd, C.OutBuf.empty() ? EvRead : (EvRead | EvWrite));
}

void WorkerNode::closeConn(int Fd, bool Malformed) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  Conn &C = *It->second;
  // Jobs this connection was waiting on: nobody is left to answer, so
  // release the service resources. Cancel detaches only these handles —
  // a solve coalesced with another connection's job keeps running.
  for (auto &KV : C.ReqToJob) {
    auto JIt = JobsById.find(KV.second);
    if (JIt == JobsById.end())
      continue;
    JIt->second.Handle.cancel();
    JobsById.erase(JIt);
  }
  Loop.removeFd(Fd);
  closeFd(Fd);
  Conns.erase(It);
  if (Malformed) {
    MutexLock Lock(StatsM);
    ++Counters.MalformedClosed;
  }
}
