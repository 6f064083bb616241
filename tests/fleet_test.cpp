//===- tests/fleet_test.cpp - Multi-daemon islarisd fleet tests ----------------===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
// The fleet contract (PR 10), end to end:
//
//  - health probes: the protocol-3 `health` request reports queue
//    pressure, the model generation fingerprint, and degraded flags, and
//    answers even while the daemon drains;
//  - hot model reload: SIGHUP/`reload` swaps the model registry under
//    load without dropping a single accepted request, bumps the
//    generation, and a parse failure leaves the serving registry
//    untouched;
//  - failover: a client holding a comma-separated endpoint list rides out
//    the loss of its daemon mid-stream — refused endpoints rotate past
//    immediately, the shared store makes the replay on the survivor
//    attach-or-reread (bit-identical), and a success resets the retry
//    backoff streak;
//  - degraded mode: store publish failures (injected ENOSPC) flip the
//    daemon into cache-off degraded mode once — it keeps serving from
//    memory and fresh execution — and the self-heal probe restores disk
//    I/O when the device recovers;
//  - isolation: daemons in one process share nothing — a study on one
//    runs under that daemon's own stores and limits, whatever the other
//    daemons were started with and whether they are still running.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Server.h"
#include "server/Transport.h"

#include "cache/TraceCache.h"
#include "support/Diag.h"
#include "support/FaultInjector.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace islaris;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Self-cleaning scratch directory; also keeps socket paths short enough
/// for sockaddr_un.
struct TempDir {
  std::string Path;
  TempDir() {
    char T[] = "/tmp/islaris-fleet-XXXXXX";
    Path = ::mkdtemp(T);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

server::ServerConfig daemonConfig(const TempDir &D, const char *Sock) {
  server::ServerConfig C;
  C.SocketPath = D.Path + "/" + Sock;
  C.CacheDir = D.Path + "/cache"; // shared: the fleet serves one store
  C.Workers = 1;
  C.HeartbeatSeconds = 0.1;
  return C;
}

/// Failover-tuned client options: tight backoff so rotation is observable
/// in milliseconds, generous attempts so a drain race never flakes.
server::ClientOptions fleetClientOptions(uint64_t Seed = 7) {
  server::ClientOptions O;
  O.MaxAttempts = 25;
  O.BackoffBaseSeconds = 0.01;
  O.BackoffCapSeconds = 0.2;
  O.ConnectTimeoutSeconds = 2;
  O.SilenceTimeoutSeconds = 5;
  O.HeartbeatSeconds = 0.1;
  O.Seed = Seed;
  return O;
}

/// add x0, x0, #imm — a distinct, cheap, concrete execution per imm.
server::TraceRequest addImm(unsigned Imm) {
  server::TraceRequest T;
  T.Arch = "aarch64";
  T.Opcode = 0x91000000u | ((Imm & 0xfffu) << 10);
  return T;
}

/// Polls \p Pred every 20ms for up to \p Seconds.
bool waitFor(double Seconds, const std::function<bool()> &Pred) {
  Clock::time_point End =
      Clock::now() + std::chrono::milliseconds(int64_t(Seconds * 1000));
  while (Clock::now() < End) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Pred();
}

} // namespace

//===----------------------------------------------------------------------===//
// Health probes.
//===----------------------------------------------------------------------===//

TEST(FleetHealthTest, ProbeReportsReadinessFields) {
  TempDir D;
  server::Server S(daemonConfig(D, "a.sock"));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C(fleetClientOptions());
  ASSERT_TRUE(C.connect(D.Path + "/a.sock", Err)) << Err;

  server::HealthInfo H;
  ASSERT_TRUE(C.health(H, Err)) << Err;
  EXPECT_EQ(H.Version, server::ProtocolVersion);
  EXPECT_EQ(H.Pid, uint64_t(::getpid()));
  EXPECT_EQ(H.QueueDepth, 0u);
  EXPECT_EQ(H.ActiveJobs, 0u);
  EXPECT_EQ(H.Draining, 0u);
  EXPECT_EQ(H.Generation, 0u);
  EXPECT_FALSE(H.ModelFpHex.empty());
  EXPECT_EQ(H.DegradedFlags, 0u);

  // The stats JSON carries the same generation/degraded fields, so
  // tooling scraping stats sees the fleet state too.
  std::string Json;
  ASSERT_TRUE(C.getStats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"model_generation\":0"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"degraded\":0"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"model_fp\":\"" + H.ModelFpHex + "\""),
            std::string::npos)
      << Json;

  S.requestShutdown();
  S.wait();
  EXPECT_GE(S.stats().HealthRequests, 1u);
}

//===----------------------------------------------------------------------===//
// Hot model reload.
//===----------------------------------------------------------------------===//

TEST(FleetReloadTest, ReloadBumpsGenerationAndKeepsServing) {
  TempDir D;
  server::Server S(daemonConfig(D, "a.sock"));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C(fleetClientOptions());
  ASSERT_TRUE(C.connect(D.Path + "/a.sock", Err)) << Err;

  server::HealthInfo H0;
  ASSERT_TRUE(C.health(H0, Err)) << Err;
  ASSERT_TRUE(C.reloadServer(Err)) << Err;

  server::HealthInfo H1;
  ASSERT_TRUE(C.health(H1, Err)) << Err;
  EXPECT_EQ(H1.Generation, H0.Generation + 1);
  // Same sources, same fingerprint: a reload is a generation event, not a
  // cache-key event, so the warm store stays valid.
  EXPECT_EQ(H1.ModelFpHex, H0.ModelFpHex);

  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(addImm(1), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);

  S.requestShutdown();
  S.wait();
  EXPECT_EQ(S.stats().Reloads, 1u);
}

TEST(FleetReloadTest, BadModelSourceIsRejectedAndOldGenerationServes) {
  TempDir D;
  fs::create_directories(D.Path + "/models");
  server::ServerConfig Cfg = daemonConfig(D, "a.sock");
  Cfg.ModelDir = D.Path + "/models"; // empty now: builtins serve
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Poison the override file, then ask for a reload: the parse failure
  // must reject the reload and leave the serving registry untouched.
  {
    std::ofstream Bad(D.Path + "/models/aarch64.sail");
    Bad << "this is not a sail model\n";
  }
  server::Client C(fleetClientOptions());
  ASSERT_TRUE(C.connect(D.Path + "/a.sock", Err)) << Err;
  std::string RErr;
  EXPECT_FALSE(C.reloadServer(RErr));
  EXPECT_FALSE(RErr.empty());

  server::HealthInfo H;
  ASSERT_TRUE(C.health(H, Err)) << Err;
  EXPECT_EQ(H.Generation, 0u); // the bad reload never took

  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(addImm(2), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);

  S.requestShutdown();
  S.wait();
  EXPECT_EQ(S.stats().Reloads, 0u);
  EXPECT_EQ(S.stats().ReloadFailures, 1u);
}

TEST(FleetReloadTest, ReloadUnderLoadDropsNothing) {
  TempDir D;
  server::ServerConfig Cfg = daemonConfig(D, "a.sock");
  Cfg.Workers = 2;
  Cfg.ExecDelaySeconds = 0.02; // keep jobs in flight across the swaps
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  constexpr unsigned Threads = 4, PerThread = 8, Reloads = 5;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Load;
  for (unsigned T = 0; T < Threads; ++T)
    Load.emplace_back([&, T] {
      server::Client C(fleetClientOptions(100 + T));
      std::string CErr;
      if (!C.connect(D.Path + "/a.sock", CErr)) {
        Failures += PerThread;
        return;
      }
      for (unsigned I = 0; I < PerThread; ++I) {
        server::Client::TraceResult TR;
        if (!C.runTrace(addImm(100 + T * PerThread + I), TR, CErr) || !TR.Ok)
          ++Failures;
      }
    });

  server::Client Reloader(fleetClientOptions(99));
  ASSERT_TRUE(Reloader.connect(D.Path + "/a.sock", Err)) << Err;
  for (unsigned R = 0; R < Reloads; ++R) {
    std::string RErr;
    EXPECT_TRUE(Reloader.reloadServer(RErr)) << RErr;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  for (std::thread &T : Load)
    T.join();

  // The acceptance bar: zero accepted requests dropped across the swaps,
  // and the generation reflects every reload.
  EXPECT_EQ(Failures.load(), 0u);
  server::HealthInfo H;
  ASSERT_TRUE(Reloader.health(H, Err)) << Err;
  EXPECT_EQ(H.Generation, uint64_t(Reloads));

  S.requestShutdown();
  S.wait();
  EXPECT_EQ(S.stats().Reloads, uint64_t(Reloads));
}

TEST(FleetReloadTest, DrainShedsReloadAndStatsWithoutWaiting) {
  TempDir D;
  server::ServerConfig Cfg = daemonConfig(D, "a.sock");
  Cfg.Workers = 1;
  Cfg.ExecDelaySeconds = 2;    // keeps the drain open while we probe it
  Cfg.ShedRetryAfterMs = 3000; // a hint no single-attempt caller may sleep
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Both clients connect before the drain: a draining daemon stops
  // accepting connections, but still answers the ones it has.
  server::Client Busy(fleetClientOptions());
  ASSERT_TRUE(Busy.connect(Cfg.SocketPath, Err)) << Err;
  server::ClientOptions O = fleetClientOptions(8);
  O.MaxAttempts = 1;
  server::Client Late(O);
  ASSERT_TRUE(Late.connect(Cfg.SocketPath, Err)) << Err;

  server::Client::TraceResult TR;
  std::string TErr;
  bool TraceOk = false;
  std::thread Tracer([&] { TraceOk = Busy.runTrace(addImm(40), TR, TErr); });
  ASSERT_TRUE(waitFor(5, [&] { return S.healthSnapshot().ActiveJobs == 1; }));
  S.requestShutdown();

  // The drain sheds both requests; a single-attempt caller reports the
  // shed at once instead of sleeping out the hint or awaiting the drain.
  auto Elapsed = [](Clock::time_point T0) {
    return std::chrono::duration<double>(Clock::now() - T0).count();
  };
  Clock::time_point T0 = Clock::now();
  std::string Json, SErr;
  EXPECT_FALSE(Late.getStats(Json, SErr));
  EXPECT_LT(Elapsed(T0), 1.0);
  EXPECT_NE(SErr.find("draining"), std::string::npos) << SErr;

  T0 = Clock::now();
  std::string RErr;
  EXPECT_FALSE(Late.reloadServer(RErr));
  EXPECT_LT(Elapsed(T0), 1.0);
  EXPECT_NE(RErr.find("draining"), std::string::npos) << RErr;

  // The accepted trace still completes before the drain says goodbye.
  Tracer.join();
  EXPECT_TRUE(TraceOk) << TErr;
  EXPECT_TRUE(TR.Ok);
  S.wait();
  EXPECT_EQ(S.stats().Reloads, 0u);
  EXPECT_GE(S.stats().Shed, 2u);
}

//===----------------------------------------------------------------------===//
// Failover.
//===----------------------------------------------------------------------===//

TEST(FleetFailoverTest, RefusedEndpointRotatesImmediately) {
  TempDir D;
  server::Server S(daemonConfig(D, "b.sock"));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // First endpoint refuses (nothing listens there): the dial walk must
  // rotate past it without burning a backoff sleep or a connect timeout.
  server::Client C(fleetClientOptions());
  Clock::time_point T0 = Clock::now();
  ASSERT_TRUE(
      C.connect(D.Path + "/missing.sock, " + D.Path + "/b.sock", Err))
      << Err;
  double Took = std::chrono::duration<double>(Clock::now() - T0).count();
  EXPECT_LT(Took, 1.5) << "refused endpoint cost a timeout-scale delay";
  EXPECT_EQ(C.activeEndpoint(), D.Path + "/b.sock");
  EXPECT_GE(C.netStats().DialsRefused, 1u);

  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(addImm(3), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);

  S.requestShutdown();
  S.wait();
}

TEST(FleetFailoverTest, SurvivorFinishesStreamBitIdentically) {
  TempDir D;
  auto A = std::make_unique<server::Server>(daemonConfig(D, "a.sock"));
  server::Server B(daemonConfig(D, "b.sock")); // same CacheDir: one store
  std::string Err;
  ASSERT_TRUE(A->start(Err)) << Err;
  ASSERT_TRUE(B.start(Err)) << Err;

  server::Client C(fleetClientOptions());
  ASSERT_TRUE(C.connect(D.Path + "/a.sock," + D.Path + "/b.sock", Err))
      << Err;
  EXPECT_EQ(C.activeEndpoint(), D.Path + "/a.sock");

  std::vector<std::string> FirstRun;
  for (unsigned I = 0; I < 3; ++I) {
    server::Client::TraceResult TR;
    ASSERT_TRUE(C.runTrace(addImm(10 + I), TR, Err)) << Err;
    ASSERT_TRUE(TR.Ok);
    FirstRun.push_back(TR.EntryText);
  }

  // Kill the client's daemon mid-stream (drain + teardown: subsequent
  // requests see a drain shed, then a dead socket).
  A->requestShutdown();
  A->wait();
  A.reset();

  for (unsigned I = 0; I < 3; ++I) {
    server::Client::TraceResult TR;
    ASSERT_TRUE(C.runTrace(addImm(13 + I), TR, Err)) << Err;
    EXPECT_TRUE(TR.Ok);
  }
  EXPECT_EQ(C.activeEndpoint(), D.Path + "/b.sock");
  EXPECT_GE(C.netStats().EndpointRotations, 1u);
  // Satellite contract: the success on the survivor reset the retry
  // backoff streak, so the next hiccup starts from the base delay.
  EXPECT_EQ(C.retryBackoffAttempt(), 0u);

  // The shared store means the survivor re-reads what the dead daemon
  // published — replaying an old key must be bit-identical, not a fresh
  // divergent execution.
  for (unsigned I = 0; I < 3; ++I) {
    server::Client::TraceResult TR;
    ASSERT_TRUE(C.runTrace(addImm(10 + I), TR, Err)) << Err;
    ASSERT_TRUE(TR.Ok);
    EXPECT_EQ(TR.EntryText, FirstRun[I]) << "imm " << 10 + I;
  }
  EXPECT_EQ(B.stats().Executed + B.stats().WarmHits, 6u);

  B.requestShutdown();
  B.wait();
}

TEST(FleetFailoverTest, SharedStoreContentionExecutesEachKeyOnce) {
  TempDir D;
  server::Server A(daemonConfig(D, "a.sock"));
  server::Server B(daemonConfig(D, "b.sock"));
  std::string Err;
  ASSERT_TRUE(A.start(Err)) << Err;
  ASSERT_TRUE(B.start(Err)) << Err;

  constexpr unsigned Keys = 5;
  std::vector<std::string> ViaA(Keys), ViaB(Keys);
  {
    server::Client C(fleetClientOptions(1));
    ASSERT_TRUE(C.connect(D.Path + "/a.sock", Err)) << Err;
    for (unsigned I = 0; I < Keys; ++I) {
      server::Client::TraceResult TR;
      ASSERT_TRUE(C.runTrace(addImm(30 + I), TR, Err)) << Err;
      ASSERT_TRUE(TR.Ok);
      ViaA[I] = TR.EntryText;
    }
  }
  {
    server::Client C(fleetClientOptions(2));
    ASSERT_TRUE(C.connect(D.Path + "/b.sock", Err)) << Err;
    for (unsigned I = 0; I < Keys; ++I) {
      server::Client::TraceResult TR;
      ASSERT_TRUE(C.runTrace(addImm(30 + I), TR, Err)) << Err;
      ASSERT_TRUE(TR.Ok);
      ViaB[I] = TR.EntryText;
    }
  }

  // One store, two daemons: every key executes exactly once fleet-wide
  // (B re-reads A's publishes) and the bytes agree.
  EXPECT_EQ(ViaA, ViaB);
  EXPECT_EQ(A.stats().Executed + B.stats().Executed, uint64_t(Keys));
  EXPECT_EQ(B.stats().WarmHits, uint64_t(Keys));

  A.requestShutdown();
  A.wait();
  B.requestShutdown();
  B.wait();
}

TEST(FleetFailoverTest, LeastLoadedConnectPicksIdleDaemon) {
  TempDir D;
  server::ServerConfig CfgA = daemonConfig(D, "a.sock");
  CfgA.ExecDelaySeconds = 1.5; // A is busy for the whole probe window
  server::Server A(CfgA);
  server::Server B(daemonConfig(D, "b.sock"));
  std::string Err;
  ASSERT_TRUE(A.start(Err)) << Err;
  ASSERT_TRUE(B.start(Err)) << Err;

  // Pin a long job on A...
  std::thread Busy([&] {
    server::Client C(fleetClientOptions(3));
    std::string CErr;
    ASSERT_TRUE(C.connect(D.Path + "/a.sock", CErr)) << CErr;
    server::Client::TraceResult TR;
    ASSERT_TRUE(C.runTrace(addImm(50), TR, CErr)) << CErr;
    EXPECT_TRUE(TR.Ok);
  });
  ASSERT_TRUE(waitFor(5, [&] { return A.healthSnapshot().ActiveJobs > 0; }));

  // ...and a least-loaded connect (list order prefers A) must settle on B.
  server::ClientOptions O = fleetClientOptions(4);
  O.PreferLeastLoaded = true;
  server::Client C(O);
  ASSERT_TRUE(C.connect(D.Path + "/a.sock," + D.Path + "/b.sock", Err))
      << Err;
  EXPECT_EQ(C.activeEndpoint(), D.Path + "/b.sock");

  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(addImm(51), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);
  Busy.join();

  A.requestShutdown();
  A.wait();
  B.requestShutdown();
  B.wait();
}

//===----------------------------------------------------------------------===//
// Isolation of in-process daemons.
//===----------------------------------------------------------------------===//

TEST(FleetIsolationTest, StudiesRunUnderTheirOwnDaemonsStoresAndLimits) {
  TempDir D;
  server::ServerConfig CfgA = daemonConfig(D, "a.sock");
  CfgA.CacheDir = D.Path + "/cache-a";
  CfgA.Limits.InstrSeconds = 1e-9; // every trace generation is already late
  server::ServerConfig CfgB = daemonConfig(D, "b.sock");
  CfgB.CacheDir = D.Path + "/cache-b";
  auto A = std::make_unique<server::Server>(CfgA);
  server::Server B(CfgB);
  std::string Err;
  ASSERT_TRUE(A->start(Err)) << Err;
  ASSERT_TRUE(B.start(Err)) << Err; // must leave A's limits alone

  auto studyRbit = [&](const char *Sock, server::Client::StudyResult &R) {
    server::Client C(fleetClientOptions());
    return C.connect(D.Path + "/" + Sock, Err) && C.runStudy("rbit", R, Err);
  };

  // A's guard fires: an infrastructure failure, not a proof failure.
  server::Client::StudyResult OnA;
  ASSERT_TRUE(studyRbit("a.sock", OnA)) << Err;
  ASSERT_EQ(OnA.Rows.size(), 1u);
  EXPECT_FALSE(OnA.Rows[0].Ok);
  EXPECT_TRUE(support::isInfrastructureError(OnA.Rows[0].D.Code))
      << support::errorCodeName(OnA.Rows[0].D.Code);
  EXPECT_EQ(OnA.Done.Status, 2u);
  EXPECT_EQ(A->traceCache()->stats().Insertions, 0u);

  // B is unguarded and fills its own store.
  server::Client::StudyResult OnB;
  ASSERT_TRUE(studyRbit("b.sock", OnB)) << Err;
  ASSERT_EQ(OnB.Rows.size(), 1u);
  EXPECT_TRUE(OnB.Rows[0].Ok) << OnB.Rows[0].Error;
  EXPECT_GT(B.traceCache()->stats().Insertions, 0u);

  // Stopping A must not take B's stores away from B's studies.
  A->requestShutdown();
  A->wait();
  A.reset();
  server::Client::StudyResult Again;
  ASSERT_TRUE(studyRbit("b.sock", Again)) << Err;
  ASSERT_EQ(Again.Rows.size(), 1u);
  EXPECT_TRUE(Again.Rows[0].Ok) << Again.Rows[0].Error;
  EXPECT_GT(Again.Rows[0].CacheHits, 0u);

  B.requestShutdown();
  B.wait();
}

//===----------------------------------------------------------------------===//
// Disk-fault degraded mode.
//===----------------------------------------------------------------------===//

TEST(FleetDegradedTest, DiskFullEntersCacheOffModeAndSelfHeals) {
  TempDir D;
  support::FaultInjector FI(11);
  FI.setRate(support::FaultSite::DiskFull, 1.0);
  support::FaultInjector::setActive(&FI);

  server::ServerConfig Cfg = daemonConfig(D, "a.sock");
  Cfg.DegradedProbeSeconds = 0.2;
  server::Server S(Cfg);
  std::string Err;
  bool Started = S.start(Err);
  if (!Started) {
    support::FaultInjector::setActive(nullptr);
    FAIL() << Err;
  }

  server::Client C(fleetClientOptions());
  ASSERT_TRUE(C.connect(D.Path + "/a.sock", Err)) << Err;

  // The first fresh execution's publish fails; the daemon must flip into
  // cache-off degraded mode instead of erroring the request.
  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(addImm(60), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);
  ASSERT_TRUE(waitFor(5, [&] {
    return (S.healthSnapshot().DegradedFlags &
            server::HealthDegradedCacheOff) != 0;
  }));
  server::HealthInfo H = S.healthSnapshot();
  EXPECT_GE(H.PublishFailures, 1u);

  // Degraded, not dead: requests keep being served (from memory and fresh
  // execution), with no per-request error storm.
  ASSERT_TRUE(C.runTrace(addImm(61), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);

  // The device recovers; the self-heal probe must notice and restore disk
  // I/O within a few probe intervals.
  FI.setRate(support::FaultSite::DiskFull, 0.0);
  ASSERT_TRUE(waitFor(10, [&] {
    return S.healthSnapshot().DegradedFlags == 0;
  }));
  EXPECT_GT(S.healthSnapshot().DegradedSeconds, 0.0);

  // Healed means publishing again: a fresh key must land on disk.
  ASSERT_TRUE(C.runTrace(addImm(62), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);
  ASSERT_TRUE(waitFor(5, [&] {
    uint64_t Entries = 0;
    std::error_code EC;
    for (fs::recursive_directory_iterator
             It(D.Path + "/cache", fs::directory_options::skip_permission_denied, EC),
         End;
         It != End; It.increment(EC))
      if (!EC && It->path().extension() == ".itc")
        ++Entries;
    return Entries >= 1;
  }));

  S.requestShutdown();
  S.wait();
  support::FaultInjector::setActive(nullptr);
  EXPECT_EQ(S.stats().DegradedEntered, 1u);
  EXPECT_EQ(S.stats().DegradedHealed, 1u);
  EXPECT_GE(S.stats().PublishFailures, 1u);
}
