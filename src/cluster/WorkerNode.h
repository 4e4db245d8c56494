//===- cluster/WorkerNode.h - TCP worker around SynthService ----*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard of the cluster tier: a TCP server that exposes an existing
/// SynthService (worker pool, ResultCache, durable warm state via
/// EngineOptions::stateDir) over the binary wire protocol
/// (net/Wire.h). This is what `morpheus worker --listen HOST:PORT` runs.
///
/// Threading shape (the FOP/FOM discipline, not thread-per-connection):
///  - one EventLoop thread owns every connection's state machine —
///    FrameDecoder, write buffer, handshake phase, request table — so
///    none of it needs locks;
///  - the SynthService worker pool solves; each job's JobRequest::onDone
///    hook post()s its node-local key to the loop, which sends the
///    Result. The hook runs after the handle turns Done, so a posted key
///    always finds a finished handle; keys whose connection died
///    meanwhile are ignored. The event bus only observes.
///  - submissions use trySubmit: a full queue answers an Error frame
///    ("queue full") instead of blocking the loop thread — backpressure
///    is the coordinator's job (per-worker in-flight caps).
///
/// Malformed input never kills the worker: a frame that fails the CRC, an
/// unknown message, a Solve before Hello, or an unparseable problem each
/// close (or refuse) that one connection; everything else keeps serving.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_CLUSTER_WORKERNODE_H
#define MORPHEUS_CLUSTER_WORKERNODE_H

#include "net/EventLoop.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "service/SynthService.h"

#include <memory>
#include <thread>
#include <unordered_map>

namespace morpheus {

struct WireMessage;

/// Counters a running worker exposes (monotonic since start()).
struct WorkerNodeStats {
  uint64_t Connections = 0;      ///< accepted
  uint64_t FramesIn = 0;         ///< complete frames decoded
  uint64_t MalformedClosed = 0;  ///< connections dropped for bad input
  uint64_t HandshakesRefused = 0;///< incompatible coordinators turned away
  uint64_t JobsAccepted = 0;     ///< Solve frames submitted to the service
  uint64_t JobsAnswered = 0;     ///< Result frames sent
};

class WorkerNode {
public:
  struct Options {
    /// Empty host defaults to loopback; port 0 = ephemeral (see port()).
    SockAddr Listen;
    std::string Name = "worker"; ///< announced in the Hello exchange
  };

  /// The engine (and its SynthService) are built inside, from the same
  /// (library, options) a single-node server would use. \p EOpts' event
  /// bus, if any, only observes.
  WorkerNode(ComponentLibrary Lib, EngineOptions EOpts, ServiceOptions SOpts,
             Options Opts);
  WorkerNode(ComponentLibrary Lib, EngineOptions EOpts, ServiceOptions SOpts);
  ~WorkerNode();

  WorkerNode(const WorkerNode &) = delete;
  WorkerNode &operator=(const WorkerNode &) = delete;

  /// Binds the listen address and starts the loop thread. False (with
  /// \p Err) when the bind fails; the node is then inert.
  bool start(std::string *Err = nullptr);

  /// Stops accepting, drops every connection, joins the loop thread. The
  /// service survives (warm state intact) until destruction; idempotent.
  void stop();

  /// The bound port (after start(); resolves listen-port 0).
  uint16_t port() const { return BoundPort; }

  WorkerNodeStats stats() const;
  SynthService &service() { return *Svc; }

private:
  struct Conn {
    int Fd = -1;
    FrameDecoder Dec;
    std::string OutBuf;   ///< bytes the kernel has not accepted yet
    bool Greeted = false; ///< HelloAck(accepted) sent; Solve legal now
    bool Closing = false; ///< drain OutBuf, then close
    /// Requests in flight on this connection: request id -> JobsById key.
    std::unordered_map<uint64_t, uint64_t> ReqToJob;
  };
  struct PendingJob {
    int Fd = -1; ///< connection the Result goes back to
    uint64_t ReqId = 0;
    JobHandle Handle;
  };

  // All private methods below run on the loop thread.
  void onAcceptable();
  void onConnEvent(int Fd, unsigned Events);
  void handlePayload(Conn &C, const std::string &Payload);
  void handleHello(Conn &C, const WireMessage &M);
  void handleSolve(Conn &C, const WireMessage &M);
  void sendMsg(Conn &C, const WireMessage &M);
  void sendResultFor(uint64_t Key);
  void flushConn(Conn &C);
  void closeConn(int Fd, bool Malformed);
  void updateInterest(Conn &C);

  std::unique_ptr<Engine> Eng;
  std::unique_ptr<SynthService> Svc;
  Options Opts;
  uint64_t OptionsDigest = 0;
  uint64_t CompatKey = 0;

  EventLoop Loop;
  std::thread LoopThread;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  bool Started = false;

  // Loop-thread-confined connection/request tables.
  std::unordered_map<int, std::unique_ptr<Conn>> Conns;
  std::unordered_map<uint64_t, PendingJob> JobsById; ///< by node-local key
  uint64_t NextJobKey = 1;

  mutable Mutex StatsM;
  WorkerNodeStats Counters GUARDED_BY(StatsM);
};

} // namespace morpheus

#endif // MORPHEUS_CLUSTER_WORKERNODE_H
