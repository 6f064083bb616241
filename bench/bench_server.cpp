//===- bench/bench_server.cpp - islarisd load generator (E8) -------------------===//
//
// Measures the resident server the way a client fleet sees it: an
// in-process islarisd on a Unix socket, driven by N concurrent clients
// replaying thousands of mixed requests.
//
//   cold phase  — every distinct key requested once (fresh executions,
//                 serial: unloaded latency);
//   warm phase  — the same keys re-requested serially (cache hits + wire
//                 round-trip: unloaded warm latency, the apples-to-apples
//                 comparison against cold);
//   fleet phase — thousands of requests over the same keys from 8
//                 concurrent client connections (loaded throughput);
//   lossy phase — the warm keys again, but over TCP through a fixed-seed
//                 chaos proxy (splits, delays, corruption, resets): what
//                 the retry/backoff client costs on a hostile network.
//   failover    — the warm keys from 8 clients spread across a 3-daemon
//                 fleet sharing the store; one daemon is drained and a
//                 second hot-reloads its models mid-run: what losing a
//                 daemon costs the fleet's latency tail.
//   degraded    — fresh keys against a daemon whose store publishes fail
//                 (injected disk-full): the throughput of cache-off
//                 degraded mode, which must be a slowdown, not an outage.
//
// Emits BENCH_server.json with throughput and p50/p95/p99 latency per
// phase (plus the lossy phase's retry/shed/deadline counters), and
// self-checks the headline claims: warm p50 latency at least 10x below
// cold p50 (the resident state is what a short-lived batch process cannot
// keep), and zero failed requests even on the lossy wire, across the
// daemon kill, and in degraded mode (faults end as retries or slower
// service, never wrong results).
//
//===----------------------------------------------------------------------===//

#include "server/ChaosProxy.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace islaris;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T).count();
}

double pct(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = size_t(P * double(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

/// add x<rd>, x<rn>, #imm with a *symbolic* destination register and one
/// symbolic source-index bit (64 merged paths, as in the paper's
/// symbolic-operand executions) and a distinct immediate per key index:
/// one key = one distinct, genuinely expensive symbolic execution.
server::TraceRequest requestFor(unsigned Key) {
  server::TraceRequest T;
  T.Arch = "aarch64";
  T.Opcode = 0x910003e0u | ((Key & 0xfffu) << 10);
  T.SymMask = 0x3fu; // rd + low rn bit symbolic
  T.Assumes.push_back({"PSTATE", "EL", 2, 2});
  T.Assumes.push_back({"PSTATE", "SP", 1, 1});
  return T;
}

struct Phase {
  std::vector<double> LatMs;
  double WallSeconds = 0;
  unsigned Failures = 0;
};

} // namespace

int main() {
  // Throwaway store, no durability syncs: this benchmark measures the
  // server, not the disk.
  ::setenv("ISLARIS_NO_FSYNC", "1", 1);
  char DirTmpl[] = "/tmp/islaris-bench-XXXXXX";
  std::string Root = ::mkdtemp(DirTmpl);
  std::string Sock = Root + "/d.sock";

  server::ServerConfig Cfg;
  Cfg.SocketPath = Sock;
  Cfg.Workers = 4;
  Cfg.MaxQueueDepth = 1u << 14;
  Cfg.CacheDir = Root + "/cache";
  server::Server S(Cfg);
  std::string Err;
  if (!S.start(Err)) {
    std::fprintf(stderr, "bench_server: %s\n", Err.c_str());
    return 2;
  }

  constexpr unsigned Keys = 48;
  constexpr unsigned WarmRequests = 480;
  constexpr unsigned FleetRequests = 2000;
  constexpr unsigned ClientThreads = 8;

  std::printf("=== islarisd load generation ===\n\n");

  // The first request pays the one-time model parse; keep that out of the
  // cold latency distribution (it is the daemon's startup cost, not a
  // per-request one).
  {
    server::Client C;
    if (!C.connect(Sock, Err)) {
      std::fprintf(stderr, "bench_server: %s\n", Err.c_str());
      return 2;
    }
    server::TraceRequest W = requestFor(0);
    W.Opcode |= 0xfffu << 10; // an immediate outside the key range
    server::Client::TraceResult R;
    if (!C.runTrace(W, R, Err) || !R.Ok) {
      std::fprintf(stderr, "bench_server: warmup failed: %s\n", Err.c_str());
      return 2;
    }
  }

  // --- Cold phase: each distinct key once, serially (fresh executions).
  Phase Cold;
  {
    server::Client C;
    if (!C.connect(Sock, Err)) {
      std::fprintf(stderr, "bench_server: %s\n", Err.c_str());
      return 2;
    }
    Clock::time_point T0 = Clock::now();
    for (unsigned K = 0; K < Keys; ++K) {
      Clock::time_point R0 = Clock::now();
      server::Client::TraceResult R;
      if (!C.runTrace(requestFor(K), R, Err) || !R.Ok)
        ++Cold.Failures;
      Cold.LatMs.push_back(msSince(R0));
    }
    Cold.WallSeconds = msSince(T0) / 1e3;
  }

  // --- Warm phase: the same keys again, serially, from a fresh client —
  // the unloaded warm latency a single caller observes.
  Phase Warm;
  {
    server::Client C;
    if (!C.connect(Sock, Err)) {
      std::fprintf(stderr, "bench_server: %s\n", Err.c_str());
      return 2;
    }
    Clock::time_point T0 = Clock::now();
    for (unsigned I = 0; I < WarmRequests; ++I) {
      Clock::time_point R0 = Clock::now();
      server::Client::TraceResult R;
      if (!C.runTrace(requestFor(I % Keys), R, Err) || !R.Ok)
        ++Warm.Failures;
      Warm.LatMs.push_back(msSince(R0));
    }
    Warm.WallSeconds = msSince(T0) / 1e3;
  }

  // --- Fleet phase: the same keys, thousands of times, from concurrent
  // clients (one connection per thread, as real clients would).
  Phase Fleet;
  {
    std::vector<std::vector<double>> PerThread(ClientThreads);
    std::vector<unsigned> Fail(ClientThreads, 0);
    std::atomic<unsigned> Next{0};
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < ClientThreads; ++W)
      Ts.emplace_back([&, W] {
        server::Client C;
        std::string E;
        if (!C.connect(Sock, E)) {
          ++Fail[W];
          return;
        }
        while (true) {
          unsigned I = Next.fetch_add(1, std::memory_order_relaxed);
          if (I >= FleetRequests)
            return;
          Clock::time_point R0 = Clock::now();
          server::Client::TraceResult R;
          if (!C.runTrace(requestFor(I % Keys), R, E) || !R.Ok)
            ++Fail[W];
          PerThread[W].push_back(msSince(R0));
        }
      });
    for (std::thread &T : Ts)
      T.join();
    Fleet.WallSeconds = msSince(T0) / 1e3;
    for (unsigned W = 0; W < ClientThreads; ++W) {
      Fleet.LatMs.insert(Fleet.LatMs.end(), PerThread[W].begin(),
                         PerThread[W].end());
      Fleet.Failures += Fail[W];
    }
  }

  // --- Lossy phase: the warm keys once more, but across TCP through a
  // fixed-seed chaos proxy injecting the hostile-network fault mix.  The
  // retrying client must absorb every fault; what we measure is what that
  // absorption costs in tail latency.
  constexpr unsigned LossyRequests = 120;
  constexpr unsigned LossyThreads = 2;
  Phase Lossy;
  server::ClientNetStats LossyNet;
  server::ChaosStats LossyChaos;
  {
    server::ChaosConfig CC;
    CC.Seed = 42; // fixed: the fault schedule is part of the benchmark
    CC.SplitProb = 0.25;
    CC.DelayProb = 0.15;
    CC.DelayMaxMs = 2;
    CC.CorruptProb = 0.02;
    CC.ResetProb = 0.01;
    server::ChaosProxy P(CC);
    if (!P.start("127.0.0.1:0", Sock, Err)) {
      std::fprintf(stderr, "bench_server: chaos proxy: %s\n", Err.c_str());
      return 2;
    }
    std::string Via = P.boundEndpoint().str();

    std::vector<std::vector<double>> PerThread(LossyThreads);
    std::vector<unsigned> Fail(LossyThreads, 0);
    std::vector<server::ClientNetStats> NetPer(LossyThreads);
    std::atomic<unsigned> Next{0};
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < LossyThreads; ++W)
      Ts.emplace_back([&, W] {
        server::ClientOptions CO;
        CO.Name = "bench-lossy";
        CO.MaxAttempts = 12;
        CO.BackoffBaseSeconds = 0.01;
        CO.BackoffCapSeconds = 0.25;
        // A corrupted client->server frame kills the connection on the
        // server side; the client's only detector is silence.  Keep it
        // tight so the lossy phase measures retry cost, not patience.
        CO.SilenceTimeoutSeconds = 2;
        CO.HeartbeatSeconds = 0.5;
        CO.Seed = 42 + W;
        server::Client C(CO);
        std::string E;
        if (!C.connect(Via, E)) {
          ++Fail[W];
          return;
        }
        while (true) {
          unsigned I = Next.fetch_add(1, std::memory_order_relaxed);
          if (I >= LossyRequests)
            break;
          Clock::time_point R0 = Clock::now();
          server::Client::TraceResult R;
          if (!C.runTrace(requestFor(I % Keys), R, E) || !R.Ok)
            ++Fail[W];
          PerThread[W].push_back(msSince(R0));
        }
        NetPer[W] = C.netStats();
      });
    for (std::thread &T : Ts)
      T.join();
    Lossy.WallSeconds = msSince(T0) / 1e3;
    for (unsigned W = 0; W < LossyThreads; ++W) {
      Lossy.LatMs.insert(Lossy.LatMs.end(), PerThread[W].begin(),
                         PerThread[W].end());
      Lossy.Failures += Fail[W];
      LossyNet.Retries += NetPer[W].Retries;
      LossyNet.Sheds += NetPer[W].Sheds;
      LossyNet.Reconnects += NetPer[W].Reconnects;
      LossyNet.HeartbeatsSent += NetPer[W].HeartbeatsSent;
      LossyNet.HeartbeatsSeen += NetPer[W].HeartbeatsSeen;
      LossyNet.DeadlineExpired += NetPer[W].DeadlineExpired;
    }
    P.stop();
    LossyChaos = P.stats();
  }

  // The single daemon's work is done; the remaining phases run against a
  // fleet of their own.  (Collect its counters before the drain.)
  server::ServerStats St = S.stats();
  S.requestShutdown();
  S.wait();

  // --- Failover phase: the warm keys again from 8 clients, but spread
  // over a 3-daemon fleet sharing the store, each client carrying the
  // full endpoint list.  A third of the way in, one daemon is drained
  // out from under its clients; two thirds in, a second daemon
  // hot-reloads its models.  Both events must cost latency, not
  // requests.
  constexpr unsigned FailoverRequests = 600;
  constexpr unsigned FailoverThreads = 8;
  constexpr unsigned FleetSize = 3;
  constexpr unsigned DegradedRequests = 24;
  constexpr unsigned DegradedThreads = 4;
  Phase Failover;
  std::vector<double> PostKillLat;
  server::ClientNetStats FailNet;
  uint64_t ReloadGeneration = 0;
  uint64_t FleetExecuted = 0, FleetWarmHits = 0;
  Phase Degraded;
  uint64_t DegradedEntered = 0, DegradedHealed = 0, DegradedPublishFails = 0;
  {
    std::vector<std::string> FSock;
    std::vector<std::unique_ptr<server::Server>> FleetD;
    for (unsigned D = 0; D < FleetSize; ++D) {
      server::ServerConfig FC;
      FC.SocketPath = Root + "/f" + std::to_string(D) + ".sock";
      FC.Workers = 2;
      FC.MaxQueueDepth = 1u << 14;
      FC.CacheDir = Root + "/cache"; // shared: the fleet serves one store
      FC.DegradedProbeSeconds = 0.2; // so the degraded phase can self-heal
      FSock.push_back(FC.SocketPath);
      FleetD.emplace_back(new server::Server(FC));
      if (!FleetD.back()->start(Err)) {
        std::fprintf(stderr, "bench_server: fleet daemon %u: %s\n", D,
                     Err.c_str());
        return 2;
      }
    }

    std::vector<std::vector<double>> PreLat(FailoverThreads);
    std::vector<std::vector<double>> PostLat(FailoverThreads);
    std::vector<unsigned> Fail(FailoverThreads, 0);
    std::vector<server::ClientNetStats> NetPer(FailoverThreads);
    std::atomic<unsigned> Next{0};
    std::atomic<bool> Killed{false};
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < FailoverThreads; ++W)
      Ts.emplace_back([&, W] {
        server::ClientOptions CO;
        CO.Name = "bench-failover";
        CO.MaxAttempts = 25;
        CO.BackoffBaseSeconds = 0.01;
        CO.BackoffCapSeconds = 0.2;
        CO.ConnectTimeoutSeconds = 2;
        CO.SilenceTimeoutSeconds = 5;
        CO.HeartbeatSeconds = 0.5;
        CO.Seed = 7 + W;
        server::Client C(CO);
        // Rotate each thread's starting daemon so the load (and the kill)
        // spreads across the ring.
        std::string Eps = FSock[W % FleetSize] + "," +
                          FSock[(W + 1) % FleetSize] + "," +
                          FSock[(W + 2) % FleetSize];
        std::string E;
        if (!C.connect(Eps, E)) {
          ++Fail[W];
          return;
        }
        while (true) {
          unsigned I = Next.fetch_add(1, std::memory_order_relaxed);
          if (I >= FailoverRequests)
            break;
          bool Post = Killed.load(std::memory_order_relaxed);
          Clock::time_point R0 = Clock::now();
          server::Client::TraceResult R;
          if (!C.runTrace(requestFor(I % Keys), R, E) || !R.Ok)
            ++Fail[W];
          (Post ? PostLat : PreLat)[W].push_back(msSince(R0));
        }
        NetPer[W] = C.netStats();
      });

    // Controller: drain daemon 0 a third of the way in, hot-reload
    // daemon 1 two thirds in.
    while (Next.load(std::memory_order_relaxed) < FailoverRequests / 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    FleetD[0]->requestShutdown();
    Killed.store(true, std::memory_order_relaxed);
    FleetD[0]->wait();
    while (Next.load(std::memory_order_relaxed) < 2 * FailoverRequests / 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::string RErr;
    if (!FleetD[1]->reloadModels(RErr))
      std::fprintf(stderr, "bench_server: mid-run reload: %s\n",
                   RErr.c_str());

    for (std::thread &T : Ts)
      T.join();
    Failover.WallSeconds = msSince(T0) / 1e3;
    for (unsigned W = 0; W < FailoverThreads; ++W) {
      Failover.LatMs.insert(Failover.LatMs.end(), PreLat[W].begin(),
                            PreLat[W].end());
      Failover.LatMs.insert(Failover.LatMs.end(), PostLat[W].begin(),
                            PostLat[W].end());
      PostKillLat.insert(PostKillLat.end(), PostLat[W].begin(),
                         PostLat[W].end());
      Failover.Failures += Fail[W];
      FailNet.Retries += NetPer[W].Retries;
      FailNet.Sheds += NetPer[W].Sheds;
      FailNet.Reconnects += NetPer[W].Reconnects;
      FailNet.DialsRefused += NetPer[W].DialsRefused;
      FailNet.DialsTimedOut += NetPer[W].DialsTimedOut;
      FailNet.EndpointRotations += NetPer[W].EndpointRotations;
    }
    ReloadGeneration = FleetD[1]->healthSnapshot().Generation;

    // --- Degraded phase: fresh keys (never-seen immediates, so every
    // request is a real execution that wants to publish) against the
    // surviving daemon 2 while every store write fails with an injected
    // disk-full.  The first failed publish flips it into cache-off
    // degraded mode; throughput from there is what a daemon on a full
    // disk still delivers.  Disarming the injector lets the self-heal
    // probe bring the store back.
    {
      support::FaultInjector FI(7);
      FI.setRate(support::FaultSite::DiskFull, 1.0);
      support::FaultInjector::setActive(&FI);

      std::vector<std::vector<double>> PerThread(DegradedThreads);
      std::vector<unsigned> DFail(DegradedThreads, 0);
      std::atomic<unsigned> DNext{0};
      Clock::time_point T1 = Clock::now();
      std::vector<std::thread> DTs;
      for (unsigned W = 0; W < DegradedThreads; ++W)
        DTs.emplace_back([&, W] {
          server::Client C;
          std::string E;
          if (!C.connect(FSock[2], E)) {
            ++DFail[W];
            return;
          }
          while (true) {
            unsigned I = DNext.fetch_add(1, std::memory_order_relaxed);
            if (I >= DegradedRequests)
              break;
            Clock::time_point R0 = Clock::now();
            server::Client::TraceResult R;
            // 0x400+: outside both the key range and the warmup immediate.
            if (!C.runTrace(requestFor(0x400u + I), R, E) || !R.Ok)
              ++DFail[W];
            PerThread[W].push_back(msSince(R0));
          }
        });
      for (std::thread &T : DTs)
        T.join();
      Degraded.WallSeconds = msSince(T1) / 1e3;
      for (unsigned W = 0; W < DegradedThreads; ++W) {
        Degraded.LatMs.insert(Degraded.LatMs.end(), PerThread[W].begin(),
                              PerThread[W].end());
        Degraded.Failures += DFail[W];
      }

      // Disarm and give the self-heal probe a moment to notice.
      FI.setRate(support::FaultSite::DiskFull, 0.0);
      Clock::time_point H0 = Clock::now();
      while (FleetD[2]->healthSnapshot().DegradedFlags != 0 &&
             msSince(H0) < 5000)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      support::FaultInjector::setActive(nullptr);
    }

    for (unsigned D = 1; D < FleetSize; ++D) {
      server::ServerStats FS = FleetD[D]->stats();
      FleetExecuted += FS.Executed;
      FleetWarmHits += FS.WarmHits;
      DegradedEntered += FS.DegradedEntered;
      DegradedHealed += FS.DegradedHealed;
      DegradedPublishFails += FS.PublishFailures;
      FleetD[D]->requestShutdown();
      FleetD[D]->wait();
    }
    server::ServerStats F0 = FleetD[0]->stats();
    FleetExecuted += F0.Executed;
    FleetWarmHits += F0.WarmHits;
  }

  double ColdP50 = pct(Cold.LatMs, 0.50), ColdP95 = pct(Cold.LatMs, 0.95),
         ColdP99 = pct(Cold.LatMs, 0.99);
  double WarmP50 = pct(Warm.LatMs, 0.50), WarmP95 = pct(Warm.LatMs, 0.95),
         WarmP99 = pct(Warm.LatMs, 0.99);
  double FleetP50 = pct(Fleet.LatMs, 0.50), FleetP95 = pct(Fleet.LatMs, 0.95),
         FleetP99 = pct(Fleet.LatMs, 0.99);
  double FleetRps = double(Fleet.LatMs.size()) / Fleet.WallSeconds;
  double LossyP50 = pct(Lossy.LatMs, 0.50), LossyP95 = pct(Lossy.LatMs, 0.95),
         LossyP99 = pct(Lossy.LatMs, 0.99);
  double FailP50 = pct(Failover.LatMs, 0.50),
         FailP95 = pct(Failover.LatMs, 0.95),
         FailP99 = pct(Failover.LatMs, 0.99);
  double PostKillP50 = pct(PostKillLat, 0.50),
         PostKillP95 = pct(PostKillLat, 0.95);
  double DegrP50 = pct(Degraded.LatMs, 0.50),
         DegrP95 = pct(Degraded.LatMs, 0.95),
         DegrP99 = pct(Degraded.LatMs, 0.99);
  double DegrRps = double(Degraded.LatMs.size()) / Degraded.WallSeconds;

  std::printf("phase |     n | threads |   p50 ms |   p95 ms |   p99 ms |  req/s\n");
  std::printf("--------------------------------------------------------------------\n");
  std::printf("cold  | %5zu | %7u | %8.3f | %8.3f | %8.3f | %6.0f\n",
              Cold.LatMs.size(), 1u, ColdP50, ColdP95, ColdP99,
              double(Cold.LatMs.size()) / Cold.WallSeconds);
  std::printf("warm  | %5zu | %7u | %8.3f | %8.3f | %8.3f | %6.0f\n",
              Warm.LatMs.size(), 1u, WarmP50, WarmP95, WarmP99,
              double(Warm.LatMs.size()) / Warm.WallSeconds);
  std::printf("fleet | %5zu | %7u | %8.3f | %8.3f | %8.3f | %6.0f\n",
              Fleet.LatMs.size(), ClientThreads, FleetP50, FleetP95, FleetP99,
              FleetRps);
  std::printf("lossy | %5zu | %7u | %8.3f | %8.3f | %8.3f | %6.0f\n",
              Lossy.LatMs.size(), LossyThreads, LossyP50, LossyP95, LossyP99,
              double(Lossy.LatMs.size()) / Lossy.WallSeconds);
  std::printf("failov| %5zu | %7u | %8.3f | %8.3f | %8.3f | %6.0f\n",
              Failover.LatMs.size(), FailoverThreads, FailP50, FailP95,
              FailP99, double(Failover.LatMs.size()) / Failover.WallSeconds);
  std::printf("degrad| %5zu | %7u | %8.3f | %8.3f | %8.3f | %6.0f\n\n",
              Degraded.LatMs.size(), DegradedThreads, DegrP50, DegrP95,
              DegrP99, DegrRps);
  std::printf("server: executed=%llu warm_hits=%llu dedup_fanout=%llu "
              "rejected=%llu shed=%llu deadline_expired=%llu\n",
              (unsigned long long)St.Executed,
              (unsigned long long)St.WarmHits,
              (unsigned long long)St.DedupFanout,
              (unsigned long long)St.Rejected, (unsigned long long)St.Shed,
              (unsigned long long)St.DeadlineExpired);
  std::printf("lossy : retries=%llu sheds=%llu reconnects=%llu | proxy "
              "splits=%llu delays=%llu corruptions=%llu resets=%llu\n\n",
              (unsigned long long)LossyNet.Retries,
              (unsigned long long)LossyNet.Sheds,
              (unsigned long long)LossyNet.Reconnects,
              (unsigned long long)LossyChaos.Splits,
              (unsigned long long)LossyChaos.Delays,
              (unsigned long long)LossyChaos.Corruptions,
              (unsigned long long)LossyChaos.Resets);
  std::printf("failov: rotations=%llu dials_refused=%llu retries=%llu "
              "sheds=%llu post-kill p50=%.3f ms p95=%.3f ms "
              "reload_generation=%llu fleet_executed=%llu "
              "fleet_warm_hits=%llu\n",
              (unsigned long long)FailNet.EndpointRotations,
              (unsigned long long)FailNet.DialsRefused,
              (unsigned long long)FailNet.Retries,
              (unsigned long long)FailNet.Sheds, PostKillP50, PostKillP95,
              (unsigned long long)ReloadGeneration,
              (unsigned long long)FleetExecuted,
              (unsigned long long)FleetWarmHits);
  std::printf("degrad: entered=%llu healed=%llu publish_failures=%llu\n\n",
              (unsigned long long)DegradedEntered,
              (unsigned long long)DegradedHealed,
              (unsigned long long)DegradedPublishFails);

  bool NoFailures = Cold.Failures == 0 && Warm.Failures == 0 &&
                    Fleet.Failures == 0 && Lossy.Failures == 0 &&
                    Failover.Failures == 0 && Degraded.Failures == 0;
  // Dedup attach counts as warm service here: either way the request did
  // not pay for its own execution.  Everything after the cold phase (plus
  // the warmup request) should have been served from resident state.
  bool WarmServed =
      St.WarmHits + St.DedupFanout >= uint64_t(WarmRequests + FleetRequests);
  bool Speedup = WarmP50 * 10.0 <= ColdP50;
  // The lossy phase only proves something if the proxy actually mangled
  // the stream; a quiet proxy would pass vacuously.
  bool FaultsFired = LossyChaos.Splits + LossyChaos.Delays +
                         LossyChaos.Corruptions + LossyChaos.Resets >
                     0;
  // The kill only proves something if clients actually had to walk their
  // rings, and the mid-run reload must have landed (generation bumped).
  bool FailedOver = FailNet.EndpointRotations > 0 && ReloadGeneration >= 1;
  // Degraded mode must have been entered (publish failure observed) and
  // the self-heal probe must have brought the store back once disarmed.
  bool DegradedRan = DegradedEntered >= 1 && DegradedHealed >= 1;
  std::printf("  no failed requests (lossy wire included) .... %s\n",
              NoFailures ? "yes" : "NO");
  std::printf("  warm+fleet served without re-execution ...... %s\n",
              WarmServed ? "yes" : "NO");
  std::printf("  warm p50 at least 10x below cold p50 ........ %s "
              "(%.3f ms vs %.3f ms)\n",
              Speedup ? "yes" : "NO", WarmP50, ColdP50);
  std::printf("  chaos proxy injected faults ................. %s\n",
              FaultsFired ? "yes" : "NO");
  std::printf("  fleet failed over + reloaded mid-run ........ %s "
              "(%llu rotations, generation %llu)\n",
              FailedOver ? "yes" : "NO",
              (unsigned long long)FailNet.EndpointRotations,
              (unsigned long long)ReloadGeneration);
  std::printf("  degraded mode entered and self-healed ....... %s\n",
              DegradedRan ? "yes" : "NO");

  std::FILE *J = std::fopen("BENCH_server.json", "w");
  if (J) {
    std::fprintf(
        J,
        "{\"bench\":\"server\",\"keys\":%u,\"client_threads\":%u,"
        "\"cold\":{\"n\":%zu,\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
        "\"wall_s\":%.4f},"
        "\"warm\":{\"n\":%zu,\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
        "\"wall_s\":%.4f},"
        "\"fleet\":{\"n\":%zu,\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
        "\"wall_s\":%.4f,\"req_per_s\":%.1f},"
        "\"lossy\":{\"n\":%zu,\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
        "\"wall_s\":%.4f,\"retries\":%llu,\"sheds\":%llu,"
        "\"reconnects\":%llu,\"deadline_expired\":%llu,"
        "\"proxy_splits\":%llu,\"proxy_delays\":%llu,"
        "\"proxy_corruptions\":%llu,\"proxy_resets\":%llu},"
        "\"failover\":{\"n\":%zu,\"p50_ms\":%.4f,\"p95_ms\":%.4f,"
        "\"p99_ms\":%.4f,\"post_kill_p50_ms\":%.4f,\"post_kill_p95_ms\":%.4f,"
        "\"wall_s\":%.4f,\"req_per_s\":%.1f,\"rotations\":%llu,"
        "\"dials_refused\":%llu,\"retries\":%llu,\"sheds\":%llu,"
        "\"reload_generation\":%llu},"
        "\"degraded\":{\"n\":%zu,\"p50_ms\":%.4f,\"p95_ms\":%.4f,"
        "\"p99_ms\":%.4f,\"wall_s\":%.4f,\"req_per_s\":%.1f,"
        "\"publish_failures\":%llu,\"entered\":%llu,\"healed\":%llu},"
        "\"server\":{\"executed\":%llu,\"warm_hits\":%llu,"
        "\"dedup_fanout\":%llu,\"shed\":%llu,\"deadline_expired\":%llu,"
        "\"heartbeats_sent\":%llu,\"heartbeats_seen\":%llu},"
        "\"warm_p50_speedup\":%.1f}\n",
        Keys, ClientThreads, Cold.LatMs.size(), ColdP50, ColdP95, ColdP99,
        Cold.WallSeconds, Warm.LatMs.size(), WarmP50, WarmP95, WarmP99,
        Warm.WallSeconds, Fleet.LatMs.size(), FleetP50, FleetP95, FleetP99,
        Fleet.WallSeconds, FleetRps, Lossy.LatMs.size(), LossyP50, LossyP95,
        LossyP99, Lossy.WallSeconds, (unsigned long long)LossyNet.Retries,
        (unsigned long long)LossyNet.Sheds,
        (unsigned long long)LossyNet.Reconnects,
        (unsigned long long)LossyNet.DeadlineExpired,
        (unsigned long long)LossyChaos.Splits,
        (unsigned long long)LossyChaos.Delays,
        (unsigned long long)LossyChaos.Corruptions,
        (unsigned long long)LossyChaos.Resets, Failover.LatMs.size(), FailP50,
        FailP95, FailP99, PostKillP50, PostKillP95, Failover.WallSeconds,
        double(Failover.LatMs.size()) / Failover.WallSeconds,
        (unsigned long long)FailNet.EndpointRotations,
        (unsigned long long)FailNet.DialsRefused,
        (unsigned long long)FailNet.Retries,
        (unsigned long long)FailNet.Sheds,
        (unsigned long long)ReloadGeneration, Degraded.LatMs.size(), DegrP50,
        DegrP95, DegrP99, Degraded.WallSeconds, DegrRps,
        (unsigned long long)DegradedPublishFails,
        (unsigned long long)DegradedEntered,
        (unsigned long long)DegradedHealed,
        (unsigned long long)St.Executed, (unsigned long long)St.WarmHits,
        (unsigned long long)St.DedupFanout, (unsigned long long)St.Shed,
        (unsigned long long)St.DeadlineExpired,
        (unsigned long long)St.HeartbeatsSent,
        (unsigned long long)St.HeartbeatsSeen,
        WarmP50 > 0 ? ColdP50 / WarmP50 : 0.0);
    std::fclose(J);
    std::printf("\n  wrote BENCH_server.json\n");
  }

  std::error_code EC;
  fs::remove_all(Root, EC);
  return NoFailures && WarmServed && Speedup && FaultsFired && FailedOver &&
                 DegradedRan
             ? 0
             : 1;
}
