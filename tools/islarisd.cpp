//===- tools/islarisd.cpp - Resident verification daemon ----------------------===//
//
// The islarisd entry point: parse flags, start server::Server, wait for a
// drain (SIGINT/SIGTERM or a client `shutdown` frame), exit 0 on a clean
// drain.
//
//   islarisd --socket /tmp/islaris.sock | --listen host:port
//            [--workers N] [--queue-depth N] [--max-inflight N]
//            [--idle-evict SECONDS] [--cache-dir DIR] [--no-persist]
//            [--job-timeout SECONDS] [--exec-delay SECONDS]
//            [--write-timeout S] [--heartbeat S] [--half-open-reap S]
//            [--model-dir DIR] [--degraded-probe S]
//
// Prints "islarisd: listening on <endpoint>" once the socket is live (for
// TCP port 0, with the kernel-assigned port), so harnesses (CI, tests)
// can wait for readiness and learn the port by watching stdout.
//
// SIGHUP hot-reloads the ISA models (re-reading --model-dir overrides):
// in-flight jobs finish on the parse they started with, requests admitted
// after the swap use the new one, and `islaris-cli health` reports the
// bumped generation.  SIGINT/SIGTERM drain; a third signal kills hard.
//
// ISLARIS_FAULTS / ISLARIS_FAULT_SEED arm the fault injector (chaos and
// degraded-mode testing — e.g. ISLARIS_FAULTS=disk-full=first:5 simulates a
// full device and flips the daemon into cache-off degraded mode).  A
// malformed flag value or fault spec exits 2 before the daemon starts.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/FaultInjector.h"

#include "Flags.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

using namespace islaris;

namespace {

/// Bounds --workers, so that a typo cannot spawn thousands of threads.
constexpr uint64_t MaxWorkers = 256;

std::atomic<int> SignalsSeen{0};
std::atomic<uint64_t> ReloadsSeen{0};

/// Self-pipe from the signal handlers (and main, at exit) to the watcher
/// thread, which blocks reading it.
int WakePipe[2] = {-1, -1};

void wakeWatcher(char C) {
  int Saved = errno;
  // A full pipe already holds a wakeup; the write end is non-blocking.
  [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &C, 1);
  errno = Saved;
}

void onSignal(int) {
  // Only async-signal-safe work here: requestShutdown takes mutexes and
  // notifies condition variables, which can deadlock if the signal lands
  // on a thread already inside cv/mutex internals.  The watcher thread,
  // woken through the pipe, drains from normal thread context.
  //
  // First signal: graceful drain.  Third: something is wedged, die hard
  // (_Exit is signal-safe).
  int N = SignalsSeen.fetch_add(1, std::memory_order_relaxed) + 1;
  if (N >= 3)
    std::_Exit(2);
  wakeWatcher('s');
}

void onHup(int) {
  // Same discipline: bump a counter and wake the watcher, which performs
  // the reload (parsing, mutexes, I/O — none of it signal-safe).
  ReloadsSeen.fetch_add(1, std::memory_order_relaxed);
  wakeWatcher('h');
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --listen HOST:PORT) [--workers N]\n"
      "          [--queue-depth N] [--max-inflight N] [--idle-evict S]\n"
      "          [--cache-dir DIR] [--no-persist] [--job-timeout S]\n"
      "          [--exec-delay S] [--write-timeout S] [--heartbeat S]\n"
      "          [--half-open-reap S] [--model-dir DIR]\n"
      "          [--degraded-probe S]\n",
      Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  server::ServerConfig Cfg;
  Cfg.Limits.JobRetries = 1;

  tools::Flags F("islarisd", argc, argv);
  while (F.more()) {
    std::string_view A = F.next();
    if (A == "--socket" || A == "--listen") // same endpoint grammar
      Cfg.SocketPath = F.str();
    else if (A == "--max-inflight")
      Cfg.MaxInflightPerClient = F.count();
    else if (A == "--write-timeout")
      Cfg.WriteTimeoutSeconds = F.real();
    else if (A == "--heartbeat")
      Cfg.HeartbeatSeconds = F.real();
    else if (A == "--half-open-reap")
      Cfg.HalfOpenReapSeconds = F.real();
    else if (A == "--workers")
      Cfg.Workers = unsigned(F.count(MaxWorkers));
    else if (A == "--queue-depth")
      Cfg.MaxQueueDepth = F.count();
    else if (A == "--idle-evict")
      Cfg.IdleEvictSeconds = F.real();
    else if (A == "--cache-dir")
      Cfg.CacheDir = F.str();
    else if (A == "--no-persist")
      Cfg.Persist = false;
    else if (A == "--job-timeout")
      Cfg.Limits.JobTimeoutSeconds = F.real();
    else if (A == "--exec-delay")
      Cfg.ExecDelaySeconds = F.real();
    else if (A == "--model-dir")
      Cfg.ModelDir = F.str();
    else if (A == "--degraded-probe")
      Cfg.DegradedProbeSeconds = F.real();
    else if (A == "--help" || A == "-h")
      return usage(argv[0]);
    else {
      std::fprintf(stderr, "islarisd: unknown flag %.*s\n", int(A.size()),
                   A.data());
      return usage(argv[0]);
    }
  }
  if (Cfg.SocketPath.empty())
    return usage(argv[0]);

  // Arm the fault injector from the environment before any store I/O so
  // chaos harnesses (CI's disk-full round, netchaos) can fault the daemon
  // from outside.  The unique_ptr outlives the server.
  std::string Err;
  std::unique_ptr<support::FaultInjector> Faults =
      support::FaultInjector::fromEnv(Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "islarisd: %s\n", Err.c_str());
    return 2;
  }
  if (Faults)
    support::FaultInjector::setActive(Faults.get());

  server::Server S(Cfg);
  if (!S.start(Err)) {
    std::fprintf(stderr, "islarisd: %s\n", Err.c_str());
    return 2;
  }

  if (::pipe2(WakePipe, O_CLOEXEC) != 0 ||
      ::fcntl(WakePipe[1], F_SETFL, O_NONBLOCK) != 0) {
    std::fprintf(stderr, "islarisd: pipe: %s\n", std::strerror(errno));
    return 2;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGHUP, onHup);

  // Translate the signal flags into drains/reloads from regular thread
  // context.  Blocks on the wake pipe; main writes 'q' to it once the
  // server has drained for any reason (e.g. a client shutdown frame).
  std::thread SigWatch([&S] {
    uint64_t ReloadsDone = 0;
    for (;;) {
      char Buf[64];
      ssize_t N = ::read(WakePipe[0], Buf, sizeof Buf);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0 || std::memchr(Buf, 'q', size_t(N)))
        return;
      if (SignalsSeen.load(std::memory_order_relaxed) > 0) {
        S.requestShutdown();
        return;
      }
      uint64_t Want = ReloadsSeen.load(std::memory_order_relaxed);
      if (Want > ReloadsDone) {
        // Coalesce a burst of SIGHUPs into one reload; keep watching for
        // drain signals afterwards.
        ReloadsDone = Want;
        std::string RErr;
        if (S.reloadModels(RErr))
          std::fprintf(stderr, "islarisd: models reloaded (SIGHUP)\n");
        else
          std::fprintf(stderr, "islarisd: reload failed: %s\n",
                       RErr.c_str());
      }
    }
  });

  std::printf("islarisd: listening on %s\n",
              S.boundEndpoint().str().c_str());
  std::fflush(stdout);

  S.wait();
  wakeWatcher('q');
  SigWatch.join();

  server::ServerStats St = S.stats();
  std::printf("islarisd: drained (%llu requests, %llu executed, "
              "%llu warm hits, %llu deduped, %llu rejected, "
              "%llu shed, %llu deadline-expired, %llu half-open reaped)\n",
              (unsigned long long)St.Requests,
              (unsigned long long)St.Executed,
              (unsigned long long)St.WarmHits,
              (unsigned long long)St.DedupFanout,
              (unsigned long long)St.Rejected,
              (unsigned long long)St.Shed,
              (unsigned long long)St.DeadlineExpired,
              (unsigned long long)St.HalfOpenReaped);
  return 0;
}
