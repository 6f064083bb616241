//===- server/Server.cpp - Resident verification server -----------------------===//

#include "server/Server.h"

#include "cache/BatchDriver.h"
#include "cache/Fingerprint.h"
#include "cache/Generations.h"
#include "cache/Scrub.h"
#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"
#include "frontend/CaseStudies.h"
#include "models/Models.h"
#include "sail/Parser.h"
#include "server/Net.h"
#include "server/Transport.h"
#include "support/Diag.h"
#include "support/Wire.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace islaris;
using namespace islaris::server;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// One accepted connection.  The reader thread owns recv(); any thread may
/// send through the write mutex.  Open flips false exactly once, after
/// which sends become no-ops (a disconnected client's queued jobs still
/// execute — their frames just fall on the floor).
struct Conn {
  int Fd = -1;
  uint64_t Id = 0;
  std::mutex WriteMu;
  std::atomic<bool> Open{true};
  /// Set as the reader thread exits; tells the accept loop this Conn can
  /// be joined, closed, and dropped from the connection table.
  std::atomic<bool> ReaderDone{false};
  /// Instant of the last byte received from this peer, as seconds on the
  /// steady clock; the half-open reaper compares silence against it.
  std::atomic<double> LastRecvSec{0};
  /// Requests accepted for this connection and not yet answered with a
  /// done/rejected; the per-client quota and the half-open policy (a
  /// silent peer with work in flight is waiting, not dead) both read it.
  std::atomic<uint32_t> InFlight{0};
  /// Connection-default request deadline from the hello (0 = none).
  std::atomic<uint64_t> DefaultDeadlineMs{0};
  std::thread Reader;
};

/// A client waiting on a result: the connection plus the request id the
/// result frames must carry, plus the enqueue instant for the done-frame
/// latency field and the instant after which the client has given up.
struct Waiter {
  std::shared_ptr<Conn> C;
  uint64_t ReqId = 0;
  Clock::time_point Enqueued;
  bool HasDeadline = false;
  Clock::time_point Deadline{};

  bool expired(Clock::time_point Now) const {
    return HasDeadline && Now >= Deadline;
  }
  /// Seconds of patience left; <0 when expired, a huge value when none.
  double secondsLeft(Clock::time_point Now) const {
    if (!HasDeadline)
      return 1e18;
    return std::chrono::duration<double>(Deadline - Now).count();
  }
};

/// The in-flight group of one distinct trace key: every waiter attached
/// before the result fans out shares the single execution.  All mutation
/// happens under the scheduler mutex.
struct TraceGroup {
  cache::Fingerprint Key;
  /// Shared ownership pins the model generation the group was admitted
  /// under: a hot reload swaps the registry but an in-flight group keeps
  /// executing against the parse its cache key was derived from.
  std::shared_ptr<const sail::Model> Model;
  std::string Arch;
  isla::OpcodeSpec Op;
  isla::Assumptions Assume; ///< Owned: the batch driver borrows it.
  isla::ExecOptions Opts;
  std::vector<Waiter> Waiters; ///< [0] is the primary requester.
};

/// One queued unit of work.
struct Job {
  enum class Kind : uint8_t { Trace, Study, Stats } K = Kind::Trace;
  Waiter W;
  std::shared_ptr<TraceGroup> Group; ///< Trace jobs.
  std::string Study;                 ///< Study name or "suite".
};

/// One parsed generation of the ISA models.  Immutable once published;
/// modelFor hands out shared_ptrs, so a generation stays alive while any
/// in-flight group still executes against it.
struct ModelSet {
  std::shared_ptr<const sail::Model> A64, Rv;
  uint64_t Generation = 0;
  /// Combined fingerprint of both models (hex) — the store-generation
  /// identity health probes report, so a fleet client can tell whether two
  /// daemons serve the same model revision.
  std::string FpHex;
};

} // namespace

struct Server::Impl {
  explicit Impl(ServerConfig C) : Cfg(std::move(C)) {}

  ServerConfig Cfg;
  Clock::time_point StartedAt;

  Listener Lsn;
  /// Polled by the accept loop beside the listener; requestShutdown
  /// signals it so a drain does not wait out the loop's poll tick.
  int WakeFd = -1;
  std::atomic<bool> Running{false};
  std::atomic<bool> Draining{false};
  bool TornDown = false;
  std::mutex TeardownMu;

  std::unique_ptr<cache::TraceCache> Cache;
  std::unique_ptr<cache::SideCondStore> SideCond;
  /// What every study request runs under: this daemon's stores and limits.
  /// Built once at start, read-only afterwards.
  frontend::RunContext Ctx;

  mutable std::mutex StatsMu;
  ServerStats St;

  std::mutex ConnMu;
  std::vector<std::shared_ptr<Conn>> Conns;
  uint64_t NextConnId = 1;
  std::thread AcceptTh;

  // Scheduler state: per-client FIFOs, the round-robin cursor over client
  // ids, the dedup index, and the activity clock — all under QMu.
  mutable std::mutex QMu;
  /// Wakes workers only.  Anyone else sleeping on QCv could steal an
  /// enqueue's notify_one and strand the job (the waitImpl waiter has its
  /// own cv for exactly that reason).
  std::condition_variable QCv;
  /// Wakes threads blocked in wait() when a drain begins.
  std::condition_variable ShutCv;
  std::map<uint64_t, std::deque<std::shared_ptr<Job>>> Queues;
  uint64_t RRCursor = 0; ///< Last client id served; pick the next above it.
  size_t TotalQueued = 0;
  unsigned ActiveJobs = 0;
  std::map<cache::Fingerprint, std::shared_ptr<TraceGroup>> Inflight;
  Clock::time_point LastActivity = Clock::now();
  bool EvictedSinceActivity = false;

  std::vector<std::thread> WorkerThs;

  // Model registry (PR 10): the current generation behind ModelMu (held
  // only for pointer reads/swaps — never across a parse).  In-flight jobs
  // pin the generation they were admitted against via the TraceGroup's
  // shared_ptr; a retired set dies with its last job.  (Identity safety
  // across the free is the fingerprint memo's job: it keys on Model::Uid,
  // which is never reused, not on the recyclable address.)
  mutable std::mutex ModelMu;
  std::shared_ptr<const ModelSet> Models;
  /// Serializes whole reloads (parse + touch + swap) without blocking
  /// modelFor readers.
  std::mutex ReloadMu;

  // Degraded-mode state (PR 10): entered when the stores report publish
  // failures (device full, dying disk), left when a periodic write probe
  // succeeds.  Seen* remember the store counters already accounted for.
  mutable std::mutex DegradeMu;
  bool Degraded = false;
  Clock::time_point DegradedAt;
  Clock::time_point LastProbeAt;
  double DegradedAccumSeconds = 0;
  uint64_t SeenCacheWF = 0, SeenSideWF = 0;

  void bump(uint64_t ServerStats::*F, uint64_t N = 1) {
    std::lock_guard<std::mutex> SL(StatsMu);
    St.*F += N;
  }

  static double nowSec() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
  }

  /// The one write path every server-side byte takes (PR 8): deadline-
  /// bounded, EINTR/partial-write safe, SIGPIPE-free.  A timed-out or
  /// failed send declares the connection dead and wakes its reader so the
  /// accept loop reaps it — a stalled peer costs one WriteTimeoutSeconds
  /// window, never a wedged worker or drain.
  bool sendAll(Conn &C, std::string_view Bytes) {
    std::lock_guard<std::mutex> WL(C.WriteMu);
    if (!C.Open.load(std::memory_order_relaxed))
      return false;
    net::IoStatus S =
        net::writeAll(C.Fd, Bytes.data(), Bytes.size(),
                      net::Deadline::in(Cfg.WriteTimeoutSeconds));
    if (S == net::IoStatus::Ok)
      return true;
    if (S == net::IoStatus::Timeout)
      bump(&ServerStats::StalledWrites);
    C.Open.store(false, std::memory_order_relaxed);
    ::shutdown(C.Fd, SHUT_RDWR);
    return false;
  }

  bool sendFrame(Conn &C, FrameType T, const std::string &Payload) {
    return sendAll(C, encodeFrame(Frame{T, Payload}));
  }

  /// The one encoder of `done` frames.
  void sendDone(Conn &C, uint64_t Id, unsigned Status, const char *Source,
                double Seconds = 0, const std::string &Error = "",
                uint64_t Attempts = 0) {
    DoneInfo D;
    D.Id = Id;
    D.Status = Status;
    D.Source = Source;
    D.Attempts = Attempts;
    D.Seconds = Seconds;
    D.Error = Error;
    sendFrame(C, FrameType::Done, encodeDone(D));
  }

  void touchActivity() {
    LastActivity = Clock::now();
    EvictedSinceActivity = false;
  }

  std::shared_ptr<const sail::Model> modelFor(const std::string &Arch) {
    std::lock_guard<std::mutex> ML(ModelMu);
    if (Arch == "aarch64")
      return Models->A64;
    if (Arch == "rv64")
      return Models->Rv;
    return nullptr;
  }

  /// Parses one model generation from the built-in sources, with per-arch
  /// file overrides from Cfg.ModelDir when present.  Null with \p Err set
  /// when a source does not parse; nothing is published.
  std::shared_ptr<const ModelSet> parseModelSet(uint64_t Generation,
                                                std::string &Err) {
    std::string A64Src = models::aarch64Source();
    std::string RvSrc = models::rv64Source();
    if (!Cfg.ModelDir.empty()) {
      auto Override = [&](const char *File, std::string &Src) {
        std::ifstream In(Cfg.ModelDir + "/" + File, std::ios::binary);
        if (!In)
          return; // missing override keeps the builtin
        std::ostringstream Buf;
        Buf << In.rdbuf();
        Src = Buf.str();
      };
      Override("aarch64.sail", A64Src);
      Override("rv64.sail", RvSrc);
    }
    std::string PErr;
    std::shared_ptr<const sail::Model> A = sail::parseModel(A64Src, PErr);
    if (!A) {
      Err = "aarch64 model: " + PErr;
      return nullptr;
    }
    std::shared_ptr<const sail::Model> R = sail::parseModel(RvSrc, PErr);
    if (!R) {
      Err = "rv64 model: " + PErr;
      return nullptr;
    }
    auto S = std::make_shared<ModelSet>();
    S->A64 = std::move(A);
    S->Rv = std::move(R);
    S->Generation = Generation;
    cache::Fingerprinter FP;
    FP.str(cache::fingerprintModel(*S->A64).toHex());
    FP.str(cache::fingerprintModel(*S->Rv).toHex());
    S->FpHex = FP.digest().toHex();
    return S;
  }

  bool reloadModelsImpl(std::string &Err) {
    std::lock_guard<std::mutex> RL(ReloadMu);
    uint64_t NextGen;
    {
      std::lock_guard<std::mutex> ML(ModelMu);
      NextGen = Models->Generation + 1;
    }
    auto S = parseModelSet(NextGen, Err);
    if (!S) {
      bump(&ServerStats::ReloadFailures);
      return false;
    }
    // Record the fresh fingerprints in the store's generation index before
    // the swap, so a health probe that sees the new generation never races
    // a store whose bookkeeping predates it.
    if (Cfg.Persist) {
      cache::touchGeneration(Cache->dir(), cache::fingerprintModel(*S->A64));
      cache::touchGeneration(Cache->dir(), cache::fingerprintModel(*S->Rv));
    }
    {
      std::lock_guard<std::mutex> ML(ModelMu);
      Models = std::move(S); // in-flight groups keep the old set alive
    }
    bump(&ServerStats::Reloads);
    return true;
  }

  isla::ExecOptions execOptionsFor(const TraceRequest &T) {
    isla::ExecOptions EO;
    EO.CacheRegReads = T.CacheRegReads;
    EO.SinksOnly = T.SinksOnly;
    EO.MaxPaths = T.MaxPaths;
    EO.Limits = Cfg.Limits;
    return EO;
  }

  //===--------------------------------------------------------------------===//
  // Listener + per-connection reader.
  //===--------------------------------------------------------------------===//

  void acceptLoop() {
    while (!Draining.load(std::memory_order_relaxed)) {
      pollfd P[2] = {{Lsn.fd(), POLLIN, 0}, {WakeFd, POLLIN, 0}};
      int R = ::poll(P, 2, 200);
      // Housekeeping rides the same tick.  The degraded probe and the idle
      // check pace themselves by wall time, so a busy accept loop runs
      // them no more often than an idle one.
      reapConns();
      probeDegraded();
      evictIfIdle();
      if (R <= 0 || P[0].revents == 0)
        continue;
      int Fd = Lsn.acceptOne();
      if (Fd < 0)
        continue;
      auto C = std::make_shared<Conn>();
      C->Fd = Fd;
      C->LastRecvSec.store(nowSec(), std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> CL(ConnMu);
        C->Id = NextConnId++;
        Conns.push_back(C);
      }
      bump(&ServerStats::Connections);
      C->Reader = std::thread([this, C] { readLoop(C); });
    }
  }

  void readLoop(std::shared_ptr<Conn> C) {
    // Catch-all: the frame/payload decoders validate their inputs, but a
    // hostile payload that finds any remaining throwing path (bad_alloc
    // from an absurd length, a std::stoul deep in a parser, a container
    // at()) must cost the client its connection, not the daemon its life —
    // an exception escaping a thread entry point is std::terminate.
    try {
      readLoopInner(C);
    } catch (const std::exception &E) {
      bump(&ServerStats::Malformed);
      sendFrame(*C, FrameType::Error,
                std::string("internal error handling request: ") + E.what());
    } catch (...) {
      bump(&ServerStats::Malformed);
      sendFrame(*C, FrameType::Error, "internal error handling request");
    }
    C->Open.store(false, std::memory_order_relaxed);
    ::shutdown(C->Fd, SHUT_RDWR);
    C->ReaderDone.store(true, std::memory_order_release);
  }

  void readLoopInner(const std::shared_ptr<Conn> &C) {
    FrameReader FR;
    char Buf[64 * 1024];
    Clock::time_point LastHbSent = Clock::now();
    // Poll in short ticks rather than blocking in recv: each tick is a
    // chance to heartbeat a waiting client and to notice a half-open peer,
    // without a second thread per connection.
    double Tick = 0.2;
    if (Cfg.HeartbeatSeconds > 0 && Cfg.HeartbeatSeconds < Tick)
      Tick = Cfg.HeartbeatSeconds;
    while (C->Open.load(std::memory_order_relaxed)) {
      size_t Got = 0;
      net::IoStatus S =
          net::readSome(C->Fd, Buf, sizeof Buf, net::Deadline::in(Tick), Got);
      if (S == net::IoStatus::Timeout) {
        if (Cfg.HeartbeatSeconds > 0 &&
            C->InFlight.load(std::memory_order_relaxed) > 0 &&
            secondsSince(LastHbSent) >= Cfg.HeartbeatSeconds) {
          LastHbSent = Clock::now();
          if (sendFrame(*C, FrameType::Heartbeat, ""))
            bump(&ServerStats::HeartbeatsSent);
        }
        if (Cfg.HalfOpenReapSeconds > 0 &&
            C->InFlight.load(std::memory_order_relaxed) == 0 &&
            nowSec() - C->LastRecvSec.load(std::memory_order_relaxed) >
                Cfg.HalfOpenReapSeconds) {
          bump(&ServerStats::HalfOpenReaped);
          return;
        }
        continue;
      }
      if (S != net::IoStatus::Ok)
        return;
      C->LastRecvSec.store(nowSec(), std::memory_order_relaxed);
      FR.feed(Buf, Got);
      Frame F;
      std::string Err;
      FrameReader::Status FS;
      while ((FS = FR.next(F, &Err)) == FrameReader::Status::Frame)
        if (!handleFrame(C, F))
          return;
      if (FS == FrameReader::Status::Malformed) {
        bump(&ServerStats::Malformed);
        sendFrame(*C, FrameType::Error, "malformed frame: " + Err);
        return;
      }
    }
  }

  /// Drop connections whose reader has exited: join the thread, close the
  /// fd, erase from the table.  Without this a long-lived daemon leaks one
  /// fd plus one joinable thread per short-lived client until accept()
  /// fails on fd exhaustion.  Late result frames for a reaped client are
  /// already no-ops: sendAll checks Open under WriteMu, and the close
  /// happens under the same mutex, so no send can race the fd.
  void reapConns() {
    std::vector<std::shared_ptr<Conn>> Dead;
    {
      std::lock_guard<std::mutex> L(ConnMu);
      for (auto It = Conns.begin(); It != Conns.end();) {
        if ((*It)->ReaderDone.load(std::memory_order_acquire)) {
          Dead.push_back(*It);
          It = Conns.erase(It);
        } else {
          ++It;
        }
      }
    }
    for (auto &C : Dead) {
      if (C->Reader.joinable())
        C->Reader.join();
      std::lock_guard<std::mutex> WL(C->WriteMu);
      if (C->Fd >= 0) {
        ::close(C->Fd);
        C->Fd = -1;
      }
    }
  }

  /// Returns false when the connection should close.
  bool handleFrame(const std::shared_ptr<Conn> &C, const Frame &F) {
    switch (F.Type) {
    case FrameType::Hello: {
      HelloInfo H;
      if (!decodeHello(F.Payload, H) || H.Version != ProtocolVersion) {
        sendFrame(*C, FrameType::Error,
                  "unsupported protocol version " + std::to_string(H.Version) +
                      " (server speaks " + std::to_string(ProtocolVersion) +
                      ")");
        return false;
      }
      C->DefaultDeadlineMs.store(H.DefaultDeadlineMs,
                                 std::memory_order_relaxed);
      std::ostringstream OS;
      support::wire::putU64(OS, ProtocolVersion);
      support::wire::putU64(OS, uint64_t(::getpid()));
      support::wire::putStr(OS, "islarisd");
      return sendFrame(*C, FrameType::Welcome, OS.str());
    }
    case FrameType::Heartbeat:
      // Liveness only: the byte arrival already refreshed LastRecvSec.
      bump(&ServerStats::HeartbeatsSeen);
      return true;
    case FrameType::Ping:
      return sendFrame(*C, FrameType::Pong, "");
    case FrameType::Shutdown:
      sendFrame(*C, FrameType::Accepted, encodeIdPayload(0, "shutdown"));
      requestShutdownImpl();
      return true;
    case FrameType::Request: {
      Request R;
      if (!decodeRequest(F.Payload, R)) {
        bump(&ServerStats::Malformed);
        sendFrame(*C, FrameType::Error, "malformed request payload");
        return false;
      }
      admit(C, R);
      return true;
    }
    default:
      // A server-to-client frame type arriving at the server is a protocol
      // violation, same as a framing error.
      bump(&ServerStats::Malformed);
      sendFrame(*C, FrameType::Error,
                std::string("unexpected frame type: ") +
                    frameTypeName(F.Type));
      return false;
    }
  }

  //===--------------------------------------------------------------------===//
  // Admission.
  //===--------------------------------------------------------------------===//

  /// Permanent rejection by default: the request itself is invalid,
  /// retrying is pointless (retry-after 0).
  void reject(Conn &C, uint64_t Id, const std::string &Why,
              uint64_t RetryAfterMs = 0) {
    bump(&ServerStats::Rejected);
    sendFrame(C, FrameType::Rejected,
              encodeIdPayload(Id, encodeRejectBody(Why, RetryAfterMs)));
  }

  /// Load shed: the request is fine, the server is not — carry a
  /// retry-after hint scaled by queue pressure so a polite client comes
  /// back when there is room.  Call with QMu NOT held.
  void shed(Conn &C, uint64_t Id, const std::string &Why) {
    size_t Queued;
    {
      std::lock_guard<std::mutex> QL(QMu);
      Queued = TotalQueued;
    }
    bump(&ServerStats::Shed);
    uint64_t Base = Cfg.ShedRetryAfterMs ? Cfg.ShedRetryAfterMs : 100;
    size_t Depth = Cfg.MaxQueueDepth ? Cfg.MaxQueueDepth : 1;
    reject(C, Id, Why, Base + Base * uint64_t(Queued) / uint64_t(Depth));
  }

  void admit(const std::shared_ptr<Conn> &C, const Request &R) {
    bump(&ServerStats::Requests);

    // Readiness probes answer inline, before the drain check, the queue,
    // and the per-client quota: a probe must get through exactly when the
    // daemon is busiest or draining (the snapshot says so), and it is not
    // work, so it never competes with work.
    if (R.K == Request::Kind::Health) {
      bump(&ServerStats::HealthRequests);
      sendFrame(*C, FrameType::Health,
                encodeIdPayload(R.Id, encodeHealth(healthSnapshotImpl())));
      sendDone(*C, R.Id, 0, "health");
      return;
    }

    if (Draining.load(std::memory_order_relaxed)) {
      // A drain is a *shed*, not a permanent rejection: the request is
      // fine, this daemon is leaving.  The retry-after hint lets a lone
      // client wait out a restart, and a failover client's shed-storm
      // rotation carries the request to a surviving daemon.
      shed(*C, R.Id, "server draining");
      return;
    }

    // Reloads also run inline (on this connection's reader thread): the
    // parse is milliseconds, and serializing it behind queued work would
    // let a flooded daemon defer the very reload meant to fix it.
    if (R.K == Request::Kind::Reload) {
      Clock::time_point T0 = Clock::now();
      std::string RErr;
      bool Ok = reloadModelsImpl(RErr);
      // A failed reload is an infrastructure failure, never a verdict.
      sendDone(*C, R.Id, Ok ? 0 : 2, "reload", secondsSince(T0), RErr);
      return;
    }

    Waiter W{C, R.Id, Clock::now()};
    uint64_t DeadlineMs = R.DeadlineMs
                              ? R.DeadlineMs
                              : C->DefaultDeadlineMs.load(
                                    std::memory_order_relaxed);
    if (DeadlineMs > 0) {
      W.HasDeadline = true;
      W.Deadline = W.Enqueued + std::chrono::milliseconds(DeadlineMs);
    }

    // Per-client quota: a connection flooding requests past its in-flight
    // cap is shed before its work touches the queue, independently of the
    // global bound — admission-tier isolation, not just fairness at pop.
    if (Cfg.MaxInflightPerClient > 0 &&
        C->InFlight.load(std::memory_order_relaxed) >=
            Cfg.MaxInflightPerClient) {
      shed(*C, R.Id,
           "client quota exceeded (" +
               std::to_string(Cfg.MaxInflightPerClient) + " in flight)");
      return;
    }

    auto J = std::make_shared<Job>();
    J->W = W;

    switch (R.K) {
    case Request::Kind::Stats:
      bump(&ServerStats::StatsRequests);
      J->K = Job::Kind::Stats;
      break;
    case Request::Kind::Study: {
      bump(&ServerStats::StudyRequests);
      if (R.Study != "suite" && !frontend::findCaseStudy(R.Study)) {
        reject(*C, R.Id, "unknown case study: " + R.Study);
        return;
      }
      J->K = Job::Kind::Study;
      J->Study = R.Study;
      break;
    }
    case Request::Kind::Health:
    case Request::Kind::Reload:
      return; // answered inline above; unreachable
    case Request::Kind::Trace: {
      bump(&ServerStats::TraceRequests);
      std::shared_ptr<const sail::Model> M = modelFor(R.Trace.Arch);
      if (!M) {
        reject(*C, R.Id, "unknown architecture: " + R.Trace.Arch);
        return;
      }
      // Widths come off the wire: BitVec(Width) allocates (Width+63)/64
      // words, so an unchecked width near 2^32 across thousands of assumes
      // would force multi-GB allocations (and an uncaught bad_alloc) in
      // the reader thread.  Register fields never exceed the 64-bit
      // target register width.
      for (const TraceRequest::Assume &A : R.Trace.Assumes) {
        if (A.Width == 0 || A.Width > 64) {
          reject(*C, R.Id,
                 "assume width out of range (1..64): " +
                     std::to_string(A.Width));
          return;
        }
      }
      auto G = std::make_shared<TraceGroup>();
      G->Model = std::move(M);
      G->Arch = R.Trace.Arch;
      G->Op = isla::OpcodeSpec{BitVec(32, R.Trace.Opcode),
                               BitVec(32, R.Trace.SymMask)};
      for (const TraceRequest::Assume &A : R.Trace.Assumes)
        G->Assume.assume(itl::Reg(A.Base, A.Field),
                         BitVec(A.Width, A.Value));
      G->Opts = execOptionsFor(R.Trace);
      G->Key = cache::traceCacheKey(G->Arch, *G->Model, G->Op, G->Assume,
                                    G->Opts);
      G->Waiters.push_back(W);
      J->K = Job::Kind::Trace;
      J->Group = std::move(G);
      break;
    }
    }
    enqueue(C, R.Id, std::move(J));
  }

  /// The one way work enters the queue.  Cross-client dedup: a trace whose
  /// key is already queued or executing attaches to that group — one
  /// execution, result fan-out, exempt from the queue bound because it
  /// adds no work.  Anything else is shed past the bound, or pushed onto
  /// its client's FIFO (a trace registering its group for attachers).
  void enqueue(const std::shared_ptr<Conn> &C, uint64_t Id,
               std::shared_ptr<Job> J) {
    std::unique_lock<std::mutex> L(QMu);
    touchActivity();
    auto It = J->Group ? Inflight.find(J->Group->Key) : Inflight.end();
    bool Attach = It != Inflight.end();
    if (Attach) {
      It->second->Waiters.push_back(J->W);
    } else if (TotalQueued >= Cfg.MaxQueueDepth) {
      L.unlock();
      shed(*C, Id, "queue full");
      return;
    } else {
      if (J->Group)
        Inflight[J->Group->Key] = J->Group;
      Queues[C->Id].push_back(std::move(J));
      ++TotalQueued;
    }
    L.unlock();
    C->InFlight.fetch_add(1, std::memory_order_relaxed);
    if (Attach)
      bump(&ServerStats::DedupFanout);
    else
      QCv.notify_one();
    sendFrame(*C, FrameType::Accepted,
              encodeIdPayload(Id, Attach ? "dedup" : "queued"));
  }

  /// One request id retired: the done (or deadline-expiry) frame is out,
  /// the per-client quota slot frees up.
  static void retire(Waiter &W) {
    W.C->InFlight.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Answers a queued request with its `done` (carrying the waiter's
  /// queue + execution time), then retires the waiter.
  void finish(Waiter &W, unsigned Status, const char *Source,
              const std::string &Error = "", uint64_t Attempts = 0) {
    sendDone(*W.C, W.ReqId, Status, Source, secondsSince(W.Enqueued), Error,
             Attempts);
    retire(W);
  }

  /// Tell a waiter its deadline passed before (or while) its work ran.
  /// Status 2 = infrastructure, Source "deadline": the verdict was never
  /// computed, so this can never be mistaken for a proof failure.
  void expireWaiter(Waiter &W, const char *Why) {
    bump(&ServerStats::DeadlineExpired);
    finish(W, 2, "deadline", Why);
  }

  //===--------------------------------------------------------------------===//
  // Workers.
  //===--------------------------------------------------------------------===//

  /// Round-robin pop: the next client id (cyclically) above the cursor
  /// with queued work.  A flooding client advances the cursor past itself
  /// after every pop, so other clients' single requests interleave 1:1
  /// with its backlog.
  std::shared_ptr<Job> popLocked() {
    if (TotalQueued == 0)
      return nullptr;
    auto It = Queues.upper_bound(RRCursor);
    for (size_t Hops = 0; Hops <= Queues.size(); ++Hops) {
      if (It == Queues.end())
        It = Queues.begin();
      if (!It->second.empty()) {
        RRCursor = It->first;
        auto J = It->second.front();
        It->second.pop_front();
        --TotalQueued;
        // Drop drained clients from the table so it tracks clients with
        // work, not every client ever seen; the cursor tolerates missing
        // ids via upper_bound.
        if (It->second.empty())
          Queues.erase(It);
        return J;
      }
      ++It;
    }
    return nullptr;
  }

  void workerLoop() {
    while (true) {
      std::shared_ptr<Job> J;
      {
        std::unique_lock<std::mutex> L(QMu);
        QCv.wait(L, [&] {
          return TotalQueued > 0 || Draining.load(std::memory_order_relaxed);
        });
        J = popLocked();
        if (!J) {
          if (Draining.load(std::memory_order_relaxed))
            return;
          continue;
        }
        ++ActiveJobs;
      }
      switch (J->K) {
      case Job::Kind::Trace:
        runTraceJob(*J);
        break;
      case Job::Kind::Study:
        runStudyJob(*J);
        break;
      case Job::Kind::Stats: {
        if (J->W.expired(Clock::now())) {
          expireWaiter(J->W, "deadline expired in queue");
          break;
        }
        sendFrame(*J->W.C, FrameType::Stats,
                  encodeIdPayload(J->W.ReqId, renderStatsImpl()));
        finish(J->W, 0, "stats");
        break;
      }
      }
      // Degraded-mode detector: any publish failures the job just caused
      // flip the daemon into cache-off mode once, instead of surfacing as
      // one error storm per request (see maybeDegrade).
      maybeDegrade();
      {
        std::lock_guard<std::mutex> L(QMu);
        --ActiveJobs;
        touchActivity();
      }
      QCv.notify_all();
    }
  }

  /// Compares the stores' publish-failure counters against the last
  /// accounted values; on growth, charges PublishFailures and (first time)
  /// enters cache-off degraded mode: both stores stop touching the disk,
  /// requests keep being served from memory and fresh execution, and the
  /// accept loop's write probe decides when to come back.
  void maybeDegrade() {
    if (!Cfg.Persist)
      return;
    uint64_t CW = Cache->stats().WriteFailures;
    uint64_t SW = SideCond->stats().WriteFailures;
    bool Enter = false;
    uint64_t Delta;
    {
      std::lock_guard<std::mutex> L(DegradeMu);
      Delta = (CW - SeenCacheWF) + (SW - SeenSideWF);
      SeenCacheWF = CW;
      SeenSideWF = SW;
      if (Delta == 0)
        return;
      if (!Degraded) {
        Degraded = true;
        DegradedAt = Clock::now();
        LastProbeAt = DegradedAt;
        Enter = true;
      }
    }
    bump(&ServerStats::PublishFailures, Delta);
    if (Enter) {
      Cache->setDiskDisabled(true);
      SideCond->setDiskDisabled(true);
      bump(&ServerStats::DegradedEntered);
      std::fprintf(stderr,
                   "islarisd: store publish failing under %s, entering "
                   "cache-off degraded mode\n",
                   Cache->dir().c_str());
    }
  }

  /// Degraded-mode self-heal: paced by DegradedProbeSeconds, write one
  /// probe file into the store directory.  The probe bypasses the disabled
  /// stores on purpose — it is the one write allowed to touch the device —
  /// and atomicWriteFile routes it through the disk-full fault site, so
  /// chaos tests heal exactly when the injector is disarmed.
  void probeDegraded() {
    {
      std::lock_guard<std::mutex> L(DegradeMu);
      if (!Degraded || Cfg.DegradedProbeSeconds <= 0)
        return;
      if (secondsSince(LastProbeAt) < Cfg.DegradedProbeSeconds)
        return;
      LastProbeAt = Clock::now();
    }
    std::string Probe = Cache->dir() + "/.disk-probe";
    if (!cache::atomicWriteFile(Probe, "islarisd disk probe\n"))
      return; // still failing; stay degraded, try again next interval
    ::unlink(Probe.c_str());
    {
      std::lock_guard<std::mutex> L(DegradeMu);
      if (!Degraded)
        return;
      Degraded = false;
      DegradedAccumSeconds += secondsSince(DegradedAt);
    }
    Cache->setDiskDisabled(false);
    SideCond->setDiskDisabled(false);
    bump(&ServerStats::DegradedHealed);
    std::fprintf(stderr,
                 "islarisd: store probe succeeded, leaving degraded mode\n");
  }

  void runTraceJob(Job &J) {
    TraceGroup &G = *J.Group;
    bool Ok = false;
    bool Fresh = false;
    // The reply: sealIdFrame's room, the serialized entry, two spare bytes.
    std::string Reply, Error;
    unsigned Attempts = 0;
    unsigned Status = 0;

    // Pre-execution pruning: drop waiters that disconnected or timed out
    // while the job sat in the queue.  When nobody live remains, retire
    // the group without executing — work no one is waiting for costs queue
    // time, never solver time.  Live deadlines also bound the execution:
    // if every live waiter is bounded, the job watchdog is tightened to
    // the most patient one (an unbounded waiter keeps the configured cap).
    std::vector<Waiter> Expired;
    bool Abandoned = false;
    bool AllBounded = true;
    double MaxLeft = 0;
    {
      std::lock_guard<std::mutex> QL(QMu);
      Clock::time_point Now = Clock::now();
      auto &Ws = G.Waiters;
      for (auto It = Ws.begin(); It != Ws.end();) {
        if (!It->C->Open.load(std::memory_order_relaxed)) {
          retire(*It);
          It = Ws.erase(It);
        } else if (It->expired(Now)) {
          Expired.push_back(*It);
          It = Ws.erase(It);
        } else {
          if (!It->HasDeadline)
            AllBounded = false;
          else if (It->secondsLeft(Now) > MaxLeft)
            MaxLeft = It->secondsLeft(Now);
          ++It;
        }
      }
      if (Ws.empty()) {
        // Un-registering under the same lock the pruning ran under means
        // no attacher can slip in between: attach goes through Inflight.
        Inflight.erase(G.Key);
        Abandoned = true;
      }
    }
    for (Waiter &W : Expired)
      expireWaiter(W, "deadline expired before execution");
    if (Abandoned)
      return;

    auto SetReply = [&Reply](const cache::Fingerprint &K,
                             const cache::CacheEntry &E) {
      Reply.reserve(IdFrameRoom + E.TraceText.size() + 256);
      Reply.assign(IdFrameRoom, ' ');
      cache::TraceCache::appendEntry(Reply, K, E);
      Reply.append(2, ' ');
    };
    if (auto E = Cache->lookup(G.Key)) {
      Ok = true;
      SetReply(G.Key, *E);
      bump(&ServerStats::WarmHits);
    } else {
      if (Cfg.ExecDelaySeconds > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(Cfg.ExecDelaySeconds));
      cache::BatchDriver BD(1);
      cache::TraceJob TJ;
      TJ.Model = G.Model.get();
      TJ.ArchName = G.Arch;
      TJ.Op = G.Op;
      TJ.Assume = &G.Assume;
      TJ.Opts = G.Opts;
      // Deadline propagation: the job's watchdog timeout (a RunLimits
      // field, outside the fingerprinted options — cache keys stay
      // bit-identical) is tightened to the most patient live waiter, so
      // execution nobody will wait out is cut off rather than run to the
      // configured cap.
      if (AllBounded) {
        double Bound = MaxLeft < 0.05 ? 0.05 : MaxLeft;
        double &Timeout = TJ.Opts.Limits.JobTimeoutSeconds;
        if (Timeout <= 0 || Bound < Timeout)
          Timeout = Bound;
      }
      auto R = BD.run({TJ}, Cache.get());
      const cache::TraceJobResult &TR = R.front();
      Ok = TR.Ok;
      Attempts = TR.Attempts;
      if (Ok) {
        SetReply(TR.Key, TR.Entry);
        if (TR.Source == cache::ResultSource::CacheHit) {
          // Another worker published the key between our lookup and the
          // driver's: a warm hit after all.
          bump(&ServerStats::WarmHits);
        } else {
          Fresh = true;
          bump(&ServerStats::Executed);
        }
      } else {
        Error = TR.Error;
        Status = support::isInfrastructureError(TR.D.Code) ? 2 : 1;
      }
    }

    // Retire the group *before* fanning out, so a request arriving during
    // the sends starts a new group (and hits the now-warm cache) instead of
    // attaching to a group that will never signal it again.
    std::vector<Waiter> Waiters;
    {
      std::lock_guard<std::mutex> L(QMu);
      Inflight.erase(G.Key);
      Waiters = std::move(G.Waiters);
    }
    for (size_t I = 0; I < Waiters.size(); ++I) {
      Waiter &W = Waiters[I];
      if (Ok)
        sendAll(*W.C, sealIdFrame(Reply, FrameType::Trace, W.ReqId));
      finish(W, Status,
             !Ok ? "failed" : (I == 0 ? (Fresh ? "fresh" : "warm") : "dedup"),
             Error, Attempts);
    }
  }

  void runStudyJob(Job &J) {
    if (J.W.expired(Clock::now())) {
      expireWaiter(J.W, "deadline expired in queue");
      return;
    }
    // Admission already checked the name, so findCaseStudy cannot miss.
    std::span<const frontend::StudyEntry> Studies =
        J.Study == "suite"
            ? frontend::caseStudies()
            : std::span<const frontend::StudyEntry>(
                  frontend::findCaseStudy(J.Study), 1);

    std::vector<frontend::CaseResult> Rows;
    for (const frontend::StudyEntry &E : Studies) {
      frontend::CaseResult R = E.Run(Ctx);
      Rows.push_back(R);
      bump(&ServerStats::RowsStreamed);
      sendFrame(*J.W.C, FrameType::Row,
                encodeIdPayload(J.W.ReqId, frontend::encodeCaseResult(R)));
      if (!R.Ok)
        sendFrame(*J.W.C, FrameType::Diag,
                  encodeIdPayload(J.W.ReqId,
                                  std::string(E.Id) + ": " +
                                      (R.Error.empty() ? "failed" : R.Error)));
    }
    unsigned Status = unsigned(frontend::suiteExitCode(Rows));
    std::string Error;
    if (Status != 0)
      for (const frontend::CaseResult &R : Rows)
        if (!R.Ok) {
          Error = R.Name + ": " + R.Error;
          break;
        }
    finish(J.W, Status, "study", Error);
  }

  //===--------------------------------------------------------------------===//
  // Idle eviction.
  //===--------------------------------------------------------------------===//

  /// Drops the stores' hot sets once the daemon has been idle for
  /// IdleEvictSeconds (once per idle stretch; the next request re-arms it).
  void evictIfIdle() {
    {
      std::lock_guard<std::mutex> L(QMu);
      if (Cfg.IdleEvictSeconds <= 0 || EvictedSinceActivity ||
          TotalQueued > 0 || ActiveJobs > 0 ||
          secondsSince(LastActivity) < Cfg.IdleEvictSeconds)
        return;
      EvictedSinceActivity = true;
    }
    // Disk entries survive; only the hot sets drop.  The next request
    // repopulates from disk at disk-hit (not cold-execution) cost.
    Cache->clearMemory();
    SideCond->clearMemory();
    bump(&ServerStats::IdleEvictions);
  }

  //===--------------------------------------------------------------------===//
  // Lifecycle.
  //===--------------------------------------------------------------------===//

  bool startImpl(std::string &Err) {
    Endpoint E;
    if (!parseEndpoint(Cfg.SocketPath, E, Err))
      return false;

    cache::TraceCacheConfig TC;
    TC.MaxEntries = Cfg.CacheMaxEntries;
    TC.Persist = Cfg.Persist;
    TC.Dir = Cfg.CacheDir;
    TC.ScrubOnOpen = Cfg.Persist; // unclean-shutdown scrub (cache/Scrub.h)
    Cache = std::make_unique<cache::TraceCache>(TC);

    cache::SideCondConfig SC;
    SC.Persist = Cfg.Persist;
    SC.Dir = Cache->dir() + "/sidecond";
    SC.ScrubOnOpen = Cfg.Persist;
    SideCond = std::make_unique<cache::SideCondStore>(SC);

    // Mark the stores dirty for the daemon's lifetime: only a clean drain
    // rewrites the markers, so a crash leaves the next open to scrub.
    if (Cfg.Persist) {
      cache::clearCleanShutdownMarker(Cache->dir());
      cache::clearCleanShutdownMarker(SideCond->dir());
    }

    // Initial model generation, parsed before the daemon accepts work: a
    // ModelDir override that does not parse fails startup, not the first
    // request.
    {
      auto MS = parseModelSet(0, Err);
      if (!MS)
        return false;
      std::lock_guard<std::mutex> ML(ModelMu);
      Models = std::move(MS);
    }

    // Transport bind (PR 8): unix paths probe-connect before unlinking so
    // a second daemon refuses to steal a live one's socket; TCP resolves
    // host:port (port 0 ephemerally) — see server/Transport.cpp.
    if (!Lsn.listenOn(E, Err))
      return false;

    // Study requests run under the resident stores and guards, handed to
    // each runner explicitly: nothing process-wide, so studies run on any
    // worker concurrently and daemons in one process stay independent.
    Ctx = {Cache.get(), SideCond.get(), Cfg.Limits};

    WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (WakeFd < 0) {
      Err = std::string("eventfd: ") + std::strerror(errno);
      return false;
    }

    StartedAt = Clock::now();
    Running.store(true, std::memory_order_relaxed);
    AcceptTh = std::thread([this] { acceptLoop(); });
    unsigned Workers = Cfg.Workers ? Cfg.Workers : 1;
    for (unsigned I = 0; I < Workers; ++I)
      WorkerThs.emplace_back([this] { workerLoop(); });
    return true;
  }

  void requestShutdownImpl() {
    // Draining must flip while holding the waiters' mutexes: a worker or
    // waitImpl waiter that checked its predicate under QMu and is about to
    // block would otherwise miss a notify sent between its check and its
    // sleep — the only wakeup ever sent — and hang the drain forever.
    bool Expected = false;
    {
      std::lock_guard<std::mutex> QL(QMu);
      if (!Draining.compare_exchange_strong(Expected, true))
        return;
      if (WakeFd >= 0) {
        uint64_t One = 1;
        [[maybe_unused]] ssize_t W = ::write(WakeFd, &One, sizeof One);
      }
      QCv.notify_all();
      ShutCv.notify_all();
    }
  }

  void waitImpl() {
    if (!Running.load(std::memory_order_relaxed))
      return;
    // Block until a drain begins, then tear down exactly once.
    {
      std::unique_lock<std::mutex> L(QMu);
      ShutCv.wait(L,
                  [&] { return Draining.load(std::memory_order_relaxed); });
    }
    std::lock_guard<std::mutex> TL(TeardownMu);
    if (TornDown)
      return;
    TornDown = true;

    if (AcceptTh.joinable())
      AcceptTh.join();
    ::close(WakeFd);
    WakeFd = -1;
    QCv.notify_all();
    for (std::thread &T : WorkerThs)
      T.join(); // workers drain every queued job before exiting
    WorkerThs.clear();

    // Every accepted request has its done frame out; say goodbye.
    {
      std::lock_guard<std::mutex> L(ConnMu);
      for (auto &C : Conns) {
        sendFrame(*C, FrameType::Bye, "drained");
        C->Open.store(false, std::memory_order_relaxed);
        ::shutdown(C->Fd, SHUT_RDWR);
      }
      for (auto &C : Conns) {
        if (C->Reader.joinable())
          C->Reader.join();
        ::close(C->Fd);
      }
      Conns.clear();
    }
    Lsn.close(); // unlinks a unix socket path itself

    // A completed drain is a clean shutdown: the next open may skip its
    // scrub.
    if (Cfg.Persist) {
      cache::writeCleanShutdownMarker(Cache->dir());
      cache::writeCleanShutdownMarker(SideCond->dir());
    }
    Running.store(false, std::memory_order_relaxed);
  }

  HealthInfo healthSnapshotImpl() const {
    HealthInfo H;
    H.Version = ProtocolVersion;
    H.Pid = uint64_t(::getpid());
    H.UptimeSeconds = secondsSince(StartedAt);
    H.Draining = Draining.load(std::memory_order_relaxed) ? 1 : 0;
    {
      std::lock_guard<std::mutex> L(QMu);
      H.QueueDepth = TotalQueued;
      H.ActiveJobs = ActiveJobs;
    }
    {
      std::lock_guard<std::mutex> L(ModelMu);
      if (Models) {
        H.Generation = Models->Generation;
        H.ModelFpHex = Models->FpHex;
      }
    }
    {
      std::lock_guard<std::mutex> L(DegradeMu);
      if (Degraded)
        H.DegradedFlags |= HealthDegradedCacheOff;
      H.DegradedSeconds =
          DegradedAccumSeconds + (Degraded ? secondsSince(DegradedAt) : 0);
    }
    {
      std::lock_guard<std::mutex> L(StatsMu);
      H.PublishFailures = St.PublishFailures;
    }
    return H;
  }

  std::string renderStatsImpl() const {
    ServerStats S;
    {
      std::lock_guard<std::mutex> L(StatsMu);
      S = St;
    }
    HealthInfo H = healthSnapshotImpl();
    cache::CacheStats CS = Cache->stats();
    cache::SideCondStats SS = SideCond->stats();
    std::ostringstream OS;
    OS << "{\"uptime_seconds\":" << secondsSince(StartedAt)
       << ",\"connections\":" << S.Connections
       << ",\"requests\":" << S.Requests
       << ",\"trace_requests\":" << S.TraceRequests
       << ",\"study_requests\":" << S.StudyRequests
       << ",\"rejected\":" << S.Rejected
       << ",\"malformed\":" << S.Malformed
       << ",\"executed\":" << S.Executed
       << ",\"warm_hits\":" << S.WarmHits
       << ",\"dedup_fanout\":" << S.DedupFanout
       << ",\"rows_streamed\":" << S.RowsStreamed
       << ",\"idle_evictions\":" << S.IdleEvictions
       << ",\"shed\":" << S.Shed
       << ",\"deadline_expired\":" << S.DeadlineExpired
       << ",\"heartbeats_sent\":" << S.HeartbeatsSent
       << ",\"heartbeats_seen\":" << S.HeartbeatsSeen
       << ",\"half_open_reaped\":" << S.HalfOpenReaped
       << ",\"stalled_writes\":" << S.StalledWrites
       << ",\"health_requests\":" << S.HealthRequests
       << ",\"reloads\":" << S.Reloads
       << ",\"reload_failures\":" << S.ReloadFailures
       << ",\"publish_failures\":" << S.PublishFailures
       << ",\"degraded\":" << ((H.DegradedFlags & HealthDegradedCacheOff)
                                   ? 1 : 0)
       << ",\"degraded_seconds\":" << H.DegradedSeconds
       << ",\"model_generation\":" << H.Generation
       << ",\"model_fp\":\"" << H.ModelFpHex << "\""
       << ",\"listen\":\"" << Lsn.local().str() << "\""
       << ",\"queue_depth\":" << H.QueueDepth
       << ",\"active_jobs\":" << H.ActiveJobs
       << ",\"trace_cache\":{\"hits\":" << CS.Hits
       << ",\"disk_hits\":" << CS.DiskHits << ",\"misses\":" << CS.Misses
       << ",\"insertions\":" << CS.Insertions << "}"
       << ",\"sidecond\":{\"hits\":" << SS.Hits
       << ",\"disk_hits\":" << SS.DiskHits << ",\"misses\":" << SS.Misses
       << ",\"insertions\":" << SS.Insertions << "}}";
    return OS.str();
  }
};

Server::Server(ServerConfig C) : I(std::make_unique<Impl>(std::move(C))) {}

Server::~Server() {
  if (I->Running.load(std::memory_order_relaxed)) {
    I->requestShutdownImpl();
    I->waitImpl();
  }
}

bool Server::start(std::string &Err) { return I->startImpl(Err); }

void Server::requestShutdown() { I->requestShutdownImpl(); }

void Server::wait() { I->waitImpl(); }

bool Server::running() const {
  return I->Running.load(std::memory_order_relaxed);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> L(I->StatsMu);
  return I->St;
}

const std::string &Server::socketPath() const { return I->Cfg.SocketPath; }

Endpoint Server::boundEndpoint() const { return I->Lsn.local(); }

size_t Server::openConnections() const {
  std::lock_guard<std::mutex> L(I->ConnMu);
  return I->Conns.size();
}

cache::TraceCache *Server::traceCache() { return I->Cache.get(); }

cache::SideCondStore *Server::sideCondStore() { return I->SideCond.get(); }

std::string Server::renderStats() const { return I->renderStatsImpl(); }

bool Server::reloadModels(std::string &Err) {
  return I->reloadModelsImpl(Err);
}

HealthInfo Server::healthSnapshot() const { return I->healthSnapshotImpl(); }
