//===- server/Client.h - islarisd client library ----------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the islarisd protocol: a blocking connection that
/// handshakes on connect and exposes one-call helpers for the request
/// kinds trace, study, stats, health and reload, plus ping and shutdown.
/// The five id-carrying kinds share one exchange (send the request,
/// consume frames until its `done` or `rejected`) and one retry rule;
/// ping and shutdown carry no request id and are a single round trip.
/// Concurrency comes from opening multiple clients, one per thread, which
/// is exactly how bench_server and the dedup tests drive the daemon.
///
/// Fleet failover (PR 10): connect() accepts a comma-separated endpoint
/// list.  The retry machinery keeps per-endpoint health — an endpoint
/// whose dial is *refused* (nobody listening) is rotated past immediately,
/// one that *times out* (slow, saturated) costs one backoff delay — and a
/// dead endpoint is re-probed on its own capped-exponential schedule.  The
/// request id is minted once per helper call and survives rotation, so a
/// replay that lands on a different daemon sharing the store dedups or
/// re-reads the published entry; it never recomputes divergently.
///
/// Hostile-network discipline (PR 8):
///
///  - Endpoints: connect() takes the Transport grammar (Unix path or TCP
///    "host:port"), so the same client crosses a real network.
///
///  - Deadlines: ClientOptions::DeadlineMs bounds each helper end to end;
///    the remaining patience travels in every request so the server can
///    abandon work this client will no longer read.
///
///  - Retries: sheds (rejected + retry-after), `error` frames and
///    transient transport failures (reset, EOF mid-stream, corrupted
///    frame, silence) are retried with capped exponential backoff (never
///    slept after the last attempt) and deterministic seeded jitter
///    (support::Backoff), reconnecting as needed.  Retrying is safe by
///    construction: request ids are idempotent per client, and trace
///    requests are canonicalized and deduped at admission, so a replay
///    can only re-observe or attach — never recompute divergently.
///
///  - Heartbeats: while a helper waits it emits client->server heartbeats
///    and expects bytes (results or server heartbeats) within
///    SilenceTimeoutSeconds, so a dead server is detected and retried
///    rather than awaited forever.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SERVER_CLIENT_H
#define ISLARIS_SERVER_CLIENT_H

#include "frontend/CaseStudies.h"
#include "server/Net.h"
#include "server/Protocol.h"
#include "server/Transport.h"
#include "support/Backoff.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace islaris::server {

/// Network behavior knobs; the defaults are tuned for a trustworthy local
/// socket (generous, retrying).  Tests and the chaos harness tighten them.
struct ClientOptions {
  std::string Name = "islaris-client";
  /// End-to-end bound on each helper call, milliseconds; 0 = none.  Also
  /// carried to the server as this client's patience.
  uint64_t DeadlineMs = 0;
  /// Client->server heartbeat interval while waiting for frames (0 = off).
  double HeartbeatSeconds = 2;
  /// Declare the server dead after this much silence while waiting
  /// (0 = wait forever).  The server heartbeats every few seconds while
  /// work is in flight, so silence past this is a wedged link, not a slow
  /// job.
  double SilenceTimeoutSeconds = 30;
  double ConnectTimeoutSeconds = 5;
  /// Deadline on each socket write (0 = block forever).
  double WriteTimeoutSeconds = 10;
  /// Total tries per helper call, including the first (1 = never retry).
  unsigned MaxAttempts = 5;
  double BackoffBaseSeconds = 0.05;
  double BackoffCapSeconds = 2.0;
  /// Jitter seed; fixed seed => reproducible retry instants.
  uint64_t Seed = 1;
  /// With a multi-endpoint spec: probe every endpoint's health at
  /// connect() and settle on the least loaded (queue depth + active jobs)
  /// instead of the first reachable one.  Off by default — list order is
  /// deterministic, which the tests and CI rely on.
  bool PreferLeastLoaded = false;
};

/// Monotonic per-client counters for the retry machinery.
struct ClientNetStats {
  uint64_t Retries = 0;        ///< Re-attempts after the first try.
  uint64_t Sheds = 0;          ///< rejected(retry-after > 0) seen.
  uint64_t Reconnects = 0;     ///< Successful re-dials mid-call.
  uint64_t HeartbeatsSent = 0;
  uint64_t HeartbeatsSeen = 0;
  uint64_t DeadlineExpired = 0; ///< Calls that died on DeadlineMs.
  uint64_t DialsRefused = 0;   ///< Dials answered "nobody listening"
                               ///< (rotated past without a backoff sleep).
  uint64_t DialsTimedOut = 0;  ///< Dials that ran out the connect timer.
  uint64_t EndpointRotations = 0; ///< Active-endpoint switches.
};

class Client {
public:
  Client() = default;
  explicit Client(ClientOptions O) : Opt(std::move(O)) {}
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  const ClientOptions &options() const { return Opt; }
  ClientNetStats netStats() const { return Net; }

  /// Connects to \p Spec — one endpoint (Unix path or TCP "host:port") or
  /// a comma-separated failover list — and performs the hello/welcome
  /// handshake with the first reachable endpoint (or, with
  /// PreferLeastLoaded, the least-loaded one).
  bool connect(const std::string &Spec, std::string &Err);
  void close();
  bool connected() const { return Fd >= 0; }

  /// The endpoint currently (or most recently) connected to.
  std::string activeEndpoint() const {
    return Eps.empty() ? Spec : Eps[Cur].Spec;
  }
  /// Attempt index of the shared retry backoff — 0 right after a success
  /// (the streak resets); test observability for the pacing contract.
  unsigned retryBackoffAttempt() const {
    return RetryB ? RetryB->attempt() : 0;
  }

  /// Low-level frame I/O (used by the protocol tests).
  bool send(const Frame &F, std::string &Err);
  /// Sends raw bytes, bypassing the frame encoder (malformed-input tests).
  bool sendRaw(const std::string &Bytes, std::string &Err);
  /// Blocks for the next frame.  False on EOF, framing error, or I/O
  /// error.
  bool recv(Frame &Out, std::string &Err);

  /// How an id-carrying request ended: its `done`, or the `rejected` that
  /// stood in for it.
  struct Reply {
    bool Ok = false;
    bool Rejected = false;
    std::string RejectReason;
    uint64_t RetryAfterMs = 0; ///< Hint from the final shed, when Rejected.
    DoneInfo Done;
  };

  /// Outcome of one trace request.
  struct TraceResult : Reply {
    /// Serialized cache entry (TraceCache::serializeEntry form) — the
    /// bit-identical artifact the dedup test compares across clients.
    std::string EntryText;
  };
  /// Issues a trace request and consumes frames until done/rejected,
  /// retrying sheds and transient transport failures per ClientOptions.
  bool runTrace(const TraceRequest &R, TraceResult &Out, std::string &Err);

  /// Outcome of one study/suite request; Done.Status is the suite exit
  /// code (0/1/2).
  struct StudyResult : Reply {
    std::vector<frontend::CaseResult> Rows;
  };
  /// Issues a study request ("suite" or one of the nine study names),
  /// streaming each row through \p OnRow as it arrives.  On a retry the
  /// row vector restarts from scratch (OnRow may see rows twice; rows are
  /// deterministic, so the final vector is the authoritative one).
  bool runStudy(const std::string &Name, StudyResult &Out, std::string &Err,
                const std::function<void(const frontend::CaseResult &)>
                    &OnRow = nullptr);

  /// Round-trips a ping.
  bool ping(std::string &Err);

  /// Fetches the server's stats JSON.
  bool getStats(std::string &Out, std::string &Err);

  /// Fetches the server's readiness snapshot.
  bool health(HealthInfo &Out, std::string &Err);

  /// Asks the server to hot-reload its ISA models.  True when
  /// the daemon swapped in the new parse; false with \p Err when the
  /// reload was rejected (e.g. the new source does not parse — the daemon
  /// keeps serving the old generation).
  bool reloadServer(std::string &Err);

  /// Asks the server to drain and exit.  Returns once the request is
  /// acknowledged (the drain completes asynchronously).
  bool shutdownServer(std::string &Err);

private:
  uint64_t nextId() { return ++LastId; }

  /// One attempt's terminal state, driving the retry loop.
  enum class Outcome {
    Done,      ///< Result (or permanent rejection) delivered; stop.
    Transient, ///< Transport died; reconnect and retry.
    Shed,      ///< Server shed the request; back off (honor hint), retry.
  };

  /// Per-endpoint health for the failover walk: a dead endpoint is skipped
  /// until its Backoff-paced re-probe instant arrives.
  struct EndpointHealth {
    std::string Spec;
    bool Dead = false;
    double RetryAtSec = 0; ///< Steady-clock second of the next re-probe.
    support::Backoff Probe;
  };

  /// One dial + handshake against endpoint \p I (no retries); classifies
  /// the failure into \p DE for the rotation policy.
  bool dialEndpoint(size_t I, std::string &Err, DialError &DE);
  /// Walks the endpoint ring from Cur: refused endpoints are rotated past
  /// immediately, a timeout/other failure ends the walk (the caller's
  /// backoff paces the retry).  Dead endpoints not yet due for a re-probe
  /// are skipped unless every endpoint is backing off.
  bool dialAny(std::string &Err);
  /// Probes every endpoint's health and re-dials the least-loaded one
  /// (connect()-time only, behind ClientOptions::PreferLeastLoaded).
  void settleLeastLoaded();
  /// One health exchange on the current connection (no retries; health()
  /// wraps it in the retry loop, settleLeastLoaded probes with it).
  Outcome healthOnce(HealthInfo &Out, const net::Deadline &Overall,
                     std::string &Err, double &RetryAfterSeconds);
  bool reconnect(std::string &Err);
  bool sendHello(std::string &Err);
  /// Waits for the next non-heartbeat frame, ticking heartbeats out and
  /// enforcing silence/overall deadlines.  False with \p Transient telling
  /// the caller whether a retry could help.  \p Out views the reader's
  /// buffer until the next read from the connection.
  bool awaitFrame(FrameView &Out, const net::Deadline &Overall,
                  std::string &Err, bool &Transient);
  /// One attempt of an id-carrying request: sends \p Req carrying the
  /// patience left in \p Overall and consumes frames until its answer.
  /// The body of each \p Result frame for Req's id goes to \p OnResult,
  /// which returns false when it does not decode (the default, Done, means
  /// the `done` frame is the whole answer).  `done` fills \p Rep;
  /// `rejected` fills it too, as Shed when it carries a retry-after hint
  /// and as a finished (Done) answer when it does not.
  Outcome exchange(Request &Req, const net::Deadline &Overall, Reply &Rep,
                   std::string &Err, double &RetryAfterSeconds,
                   FrameType Result = FrameType::Done,
                   const std::function<bool(std::string_view)> &OnResult =
                       nullptr);
  /// For the helpers that must get an answer (stats, health, reload): a
  /// finished exchange that was rejected, or that ended without \p Got,
  /// becomes an error naming \p What and the reason.
  static Outcome answered(Outcome O, const Reply &Rep, bool Got,
                          const char *What, std::string &Err);
  /// The end-to-end bound of one helper call (ClientOptions::DeadlineMs).
  net::Deadline overallDeadline() const;
  /// Shared retry driver around one attempt closure.
  bool retryLoop(
      std::string &Err,
      const std::function<Outcome(const net::Deadline &, std::string &,
                                  double & /*RetryAfterSeconds*/)> &Attempt);

  ClientOptions Opt;
  ClientNetStats Net;
  std::string Spec; ///< Raw spec of the last connect() (possibly a list).
  std::vector<EndpointHealth> Eps; ///< Parsed failover ring.
  size_t Cur = 0;                  ///< Index of the active endpoint.
  unsigned ShedStreak = 0; ///< Consecutive sheds from the active endpoint.
  /// The shared retry pacer: persists across helper calls so a shed storm
  /// keeps its long delays between calls, and resets on every success so
  /// one healthy answer restores fast retries.
  std::optional<support::Backoff> RetryB;
  int Fd = -1;
  uint64_t LastId = 0;
  FrameReader Reader;
  double LastSendSec = 0; ///< Heartbeat pacing (steady-clock seconds).
};

} // namespace islaris::server

#endif // ISLARIS_SERVER_CLIENT_H
