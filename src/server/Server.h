//===- server/Server.h - Resident verification server -----------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The islarisd core: a resident verification service on a Unix-domain
/// socket.  One process keeps the expensive state warm across requests —
/// the persistent TraceCache and SideCondStore, their in-memory hot sets,
/// and the parsed ISA models — so a short-lived client pays none of the
/// cold-start cost the batch tools pay on every invocation.  Study requests
/// run under one frontend::RunContext built at start from the daemon's own
/// stores and ServerConfig::Limits; nothing is installed process-wide, so
/// studies run concurrently on every worker and several daemons can share
/// one process without seeing each other's stores or limits.
///
/// Scheduling discipline:
///
///  - Admission control: the total queue is bounded (ServerConfig::
///    MaxQueueDepth); a request past the bound is *rejected immediately*
///    with a `rejected` frame rather than queued into unbounded latency.
///
///  - Fairness: queued work is organized as one FIFO per client connection
///    and workers pick round-robin across clients, so a client flooding
///    thousands of requests cannot starve a client with one.
///
///  - Cross-client dedup: trace requests are canonicalized to their
///    cache::traceCacheKey at admission; a request whose key is already
///    queued or executing attaches to the in-flight group instead of
///    executing again, and the one result fans out to every waiter —
///    bit-identically, since results travel in serialized CacheEntry form.
///
///  - Drain: shutdown (signal or `shutdown` frame) stops accepting new
///    work but completes everything already accepted, so every accepted
///    request id receives its `done` frame before `bye`.  A clean drain
///    writes the stores' clean-shutdown markers (cache/Scrub.h), making
///    the next open skip its scrub.
///
///  - Idle eviction: after ServerConfig::IdleEvictSeconds without work the
///    in-memory hot sets are dropped (clearMemory; disk entries remain),
///    bounding the resident footprint of an idle daemon.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SERVER_SERVER_H
#define ISLARIS_SERVER_SERVER_H

#include "server/Protocol.h"
#include "server/Transport.h"
#include "support/Guard.h"

#include <cstdint>
#include <memory>
#include <string>

namespace islaris::cache {
class TraceCache;
class SideCondStore;
}

namespace islaris::server {

struct ServerConfig {
  /// Listen endpoint in the Transport grammar: a Unix socket path (keep it
  /// short: sockaddr_un caps paths at ~107 bytes, so prefer /tmp/...) or a
  /// TCP "host:port" (port 0 binds ephemerally; read the real port back
  /// from Server::boundEndpoint()).
  std::string SocketPath;
  /// Worker threads executing requests (1 = strictly serial execution,
  /// which makes dedup and fairness tests deterministic).
  unsigned Workers = 2;
  /// Admission bound on queued-but-not-executing requests across all
  /// clients; past it requests are rejected, not queued.
  size_t MaxQueueDepth = 256;
  /// Seconds of idle after which in-memory cache hot sets are dropped
  /// (0 = never).
  double IdleEvictSeconds = 0;
  /// Resource guards applied to request execution: trace jobs carry them
  /// in their ExecOptions (the batch driver reads JobTimeoutSeconds /
  /// JobRetries there), study requests in their RunContext.
  support::RunLimits Limits;
  /// Keep the trace/side-condition stores on disk under CacheDir.
  bool Persist = true;
  /// Store root; empty = cache::resolveCacheDir().  Side conditions live
  /// under <CacheDir>/sidecond.
  std::string CacheDir;
  /// In-memory LRU bound of the resident trace cache.
  size_t CacheMaxEntries = 4096;
  /// Test hook: artificial seconds of latency added to each *fresh*
  /// execution, giving dedup/fairness tests a deterministic window in
  /// which to race a second client against an in-flight request.
  double ExecDelaySeconds = 0;

  //===--- Hostile-network hardening (PR 8) -------------------------------===//

  /// Deadline on every socket write.  A peer that stops draining its
  /// receive buffer stalls one send for at most this long, after which the
  /// connection is declared dead — a worker, the heartbeat tick, and the
  /// drain path can never wedge on a stalled peer.  0 = block forever
  /// (pre-PR-8 behavior; do not use on untrusted networks).
  double WriteTimeoutSeconds = 10;
  /// Interval of server->client heartbeat frames on connections with
  /// requests in flight, so a client waiting minutes for a cold execution
  /// can tell a slow server from a dead one.  0 = off.
  double HeartbeatSeconds = 5;
  /// A connection that has sent no bytes for this long *and* has nothing
  /// in flight is half-open (peer vanished without a FIN) and is reaped.
  /// 0 = never reap.
  double HalfOpenReapSeconds = 30;
  /// Per-connection cap on requests queued or executing; past it requests
  /// are shed with a retry-after hint.  0 = unlimited.
  size_t MaxInflightPerClient = 0;
  /// Base retry-after hint (milliseconds) carried by load-shed
  /// rejections; scaled up with queue pressure.
  uint64_t ShedRetryAfterMs = 100;

  //===--- Fleet operation (PR 10) ----------------------------------------===//

  /// Optional model-source override directory: when non-empty, files named
  /// <ModelDir>/aarch64.sail and <ModelDir>/rv64.sail replace the built-in
  /// sources for the architectures they cover (missing files keep the
  /// builtin).  Re-read on every hot reload (SIGHUP or a `reload` request),
  /// which is the point: edit the file, signal the daemon, new requests
  /// execute against the new parse while in-flight jobs finish on the old
  /// one.
  std::string ModelDir;
  /// While in cache-off degraded mode (store publishes failing — device
  /// full, dying disk), probe the store directory for writability at this
  /// interval and self-heal when a probe succeeds.  <= 0 disables the
  /// probe (degraded mode then persists until restart).
  double DegradedProbeSeconds = 5;
};

/// Monotonic counters; readable while the server runs.
struct ServerStats {
  uint64_t Connections = 0;
  uint64_t Requests = 0;      ///< Request frames parsed (any kind).
  uint64_t TraceRequests = 0;
  uint64_t StudyRequests = 0;
  uint64_t StatsRequests = 0;
  uint64_t Rejected = 0;      ///< Admission-control rejections.
  uint64_t Malformed = 0;     ///< Connections killed by framing errors.
  uint64_t Executed = 0;      ///< Fresh symbolic executions performed.
  uint64_t WarmHits = 0;      ///< Trace requests served from the cache.
  uint64_t DedupFanout = 0;   ///< Requests attached to an in-flight group.
  uint64_t RowsStreamed = 0;  ///< Case-study rows streamed to clients.
  uint64_t IdleEvictions = 0; ///< Hot-set drops by the idle timer.
  uint64_t Shed = 0;          ///< Load-shed rejections (queue/quota), a
                              ///< subset of Rejected; carried retry-after.
  uint64_t DeadlineExpired = 0; ///< Requests abandoned (or never started)
                                ///< because every waiter's deadline passed.
  uint64_t HeartbeatsSent = 0;  ///< Server->client heartbeat frames.
  uint64_t HeartbeatsSeen = 0;  ///< Client->server heartbeat frames.
  uint64_t HalfOpenReaped = 0;  ///< Connections reaped for silence.
  uint64_t StalledWrites = 0;   ///< Sends abandoned at WriteTimeoutSeconds.
  uint64_t HealthRequests = 0;  ///< `health` probes answered.
  uint64_t Reloads = 0;         ///< Successful hot model reloads.
  uint64_t ReloadFailures = 0;  ///< Reloads rejected (model did not parse).
  uint64_t PublishFailures = 0; ///< Store publishes that failed (both
                                ///< stores; feeds degraded-mode entry).
  uint64_t DegradedEntered = 0; ///< Transitions into cache-off degraded mode.
  uint64_t DegradedHealed = 0;  ///< Degraded spells ended by a probe success.
};

/// The resident verification server.  start() spawns the listener and
/// worker threads and returns; requestShutdown() begins a drain; wait()
/// blocks until the drain completes and every thread has been joined.
class Server {
public:
  explicit Server(ServerConfig C);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Opens the stores, binds the socket, spawns threads.
  /// False (with \p Err set) if the socket could not be bound.
  bool start(std::string &Err);

  /// Begins a graceful drain: stop accepting connections and requests,
  /// finish everything already accepted.  Idempotent; safe from signal
  /// handlers' notify threads and from connection readers.
  void requestShutdown();

  /// Blocks until the server has fully stopped (drain complete, threads
  /// joined, markers written).  Also reached by destruction.
  void wait();

  bool running() const;
  ServerStats stats() const;
  const std::string &socketPath() const;

  /// The endpoint actually bound (valid between start() and wait()); for
  /// TCP with port 0 this carries the kernel-assigned port.
  Endpoint boundEndpoint() const;

  /// Connections currently held in the table (accepted and not yet
  /// reaped); exposed so tests can assert disconnected clients are
  /// actually dropped rather than leaked.
  size_t openConnections() const;

  /// The resident stores (valid between start() and wait()); exposed for
  /// tests and the stats endpoint.
  cache::TraceCache *traceCache();
  cache::SideCondStore *sideCondStore();

  /// Renders the stats payload served to `stats` requests (JSON object,
  /// one line).
  std::string renderStats() const;

  /// Hot model reload: re-parse the model sources (ModelDir overrides
  /// included), swap the registry, bump the generation, and touch the new
  /// fingerprints' generation records.  In-flight jobs finish against the
  /// parse they started with; requests admitted after the swap use the new
  /// one.  False (with \p Err, registry untouched) when a source does not
  /// parse — a bad reload never takes down a serving daemon.  Safe from
  /// any thread; also reached by SIGHUP (tools/islarisd) and the `reload`
  /// wire request.
  bool reloadModels(std::string &Err);

  /// The readiness snapshot served to `health` probes (also handy for
  /// tests: generation, degraded flags, queue pressure).
  HealthInfo healthSnapshot() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace islaris::server

#endif // ISLARIS_SERVER_SERVER_H
