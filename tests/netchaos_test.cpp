//===- tests/netchaos_test.cpp - Hostile-network islarisd tests ----------------===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
// The hostile-network contract (PR 8), end to end:
//
//  - transport: the endpoint grammar, TCP listeners with ephemeral ports,
//    and the probe-first Unix bind (a second daemon refuses to steal a
//    live daemon's socket; a stale socket is reclaimed);
//  - FrameReader under adversarial delivery: splits at every byte
//    boundary, interleaved heartbeats, and precise attribution of each
//    malformed region — never a hang;
//  - Backoff: deterministic seeded jitter, the cap, retry-after hints;
//  - chaos: requests crossing a fault-injecting proxy (splits, delays,
//    corruption, resets) finish bit-identical to a direct run or as
//    cleanly attributed failures — the proxy can be killed mid-stream and
//    the server still drains with clean-shutdown markers;
//  - overload: a flooding client is shed with retry-after hints while the
//    server keeps serving; deadlines expire queued work; half-open
//    connections are reaped; heartbeats flow both ways.
//
// Every live-server test runs against a throwaway store in a TempDir, so
// nothing touches the user's real cache.
//
//===----------------------------------------------------------------------===//

#include "server/ChaosProxy.h"
#include "server/Client.h"
#include "server/Server.h"
#include "server/Transport.h"

#include "cache/Scrub.h"
#include "support/Backoff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace islaris;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  std::string Path;
  TempDir() {
    char T[] = "/tmp/islaris-net-XXXXXX";
    Path = ::mkdtemp(T);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

server::ServerConfig baseConfig(const TempDir &D) {
  server::ServerConfig C;
  C.SocketPath = D.Path + "/d.sock";
  C.CacheDir = D.Path + "/cache";
  C.Workers = 1;
  // Tighten the hostile-network knobs so tests observe them in seconds.
  C.WriteTimeoutSeconds = 5;
  C.HeartbeatSeconds = 0.1;
  C.HalfOpenReapSeconds = 0; // individual tests opt in
  return C;
}

/// add x0, x0, #imm — a distinct, cheap, concrete execution per imm.
server::TraceRequest addImm(unsigned Imm) {
  server::TraceRequest T;
  T.Arch = "aarch64";
  T.Opcode = 0x91000000u | ((Imm & 0xfffu) << 10);
  return T;
}

server::ClientOptions chaosClientOptions(uint64_t Seed) {
  server::ClientOptions O;
  O.MaxAttempts = 25;
  O.BackoffBaseSeconds = 0.01;
  O.BackoffCapSeconds = 0.25;
  O.SilenceTimeoutSeconds = 5;
  O.HeartbeatSeconds = 0.1;
  O.Seed = Seed;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Endpoint grammar.
//===----------------------------------------------------------------------===//

TEST(EndpointTest, Grammar) {
  server::Endpoint E;
  std::string Err;

  ASSERT_TRUE(server::parseEndpoint("/tmp/x.sock", E, Err));
  EXPECT_EQ(E.K, server::Endpoint::Kind::Unix);
  EXPECT_EQ(E.str(), "/tmp/x.sock");

  ASSERT_TRUE(server::parseEndpoint("127.0.0.1:8421", E, Err));
  EXPECT_EQ(E.K, server::Endpoint::Kind::Tcp);
  EXPECT_EQ(E.Host, "127.0.0.1");
  EXPECT_EQ(E.Port, 8421);

  // Bare ":port" binds loopback, not wildcard: chaos tests must not open
  // the machine to the network by accident.
  ASSERT_TRUE(server::parseEndpoint(":9000", E, Err));
  EXPECT_EQ(E.K, server::Endpoint::Kind::Tcp);
  EXPECT_EQ(E.Host, "127.0.0.1");

  // Relative paths and colon-bearing non-numeric tails stay Unix paths.
  ASSERT_TRUE(server::parseEndpoint("./rel.sock", E, Err));
  EXPECT_EQ(E.K, server::Endpoint::Kind::Unix);
  ASSERT_TRUE(server::parseEndpoint("host:notaport", E, Err));
  EXPECT_EQ(E.K, server::Endpoint::Kind::Unix);

  EXPECT_FALSE(server::parseEndpoint("", E, Err));
  EXPECT_FALSE(server::parseEndpoint("h:70000", E, Err));
}

//===----------------------------------------------------------------------===//
// Backoff policy.
//===----------------------------------------------------------------------===//

TEST(BackoffTest, DeterministicSeededJitter) {
  support::Backoff A(0.1, 2.0, 42), B(0.1, 2.0, 42), C(0.1, 2.0, 43);
  std::vector<double> SA, SB, SC;
  for (int I = 0; I < 8; ++I) {
    SA.push_back(A.next());
    SB.push_back(B.next());
    SC.push_back(C.next());
  }
  EXPECT_EQ(SA, SB); // same seed: identical retry instants
  EXPECT_NE(SA, SC); // different seed: different jitter
}

TEST(BackoffTest, ExponentialShapeAndCap) {
  support::Backoff B(0.1, 1.0, 7);
  double Prev = 0;
  for (int I = 0; I < 12; ++I) {
    double Nominal = std::min(1.0, 0.1 * double(1 << std::min(I, 20)));
    double D = B.next();
    // Equal jitter: [nominal/2, nominal).
    EXPECT_GE(D, Nominal * 0.5 - 1e-12) << "attempt " << I;
    EXPECT_LT(D, Nominal) << "attempt " << I;
    (void)Prev;
    Prev = D;
  }
}

TEST(BackoffTest, RetryAfterHintWinsWhenLarger) {
  support::Backoff B(0.01, 0.1, 9);
  EXPECT_GE(B.next(0.5), 0.5); // server hint dominates a tiny backoff
  support::Backoff B2(10.0, 20.0, 9);
  EXPECT_GE(B2.next(0.001), 5.0); // backoff dominates a tiny hint
}

TEST(BackoffTest, ResetRestartsExponentNotJitter) {
  support::Backoff B(0.1, 100.0, 11);
  (void)B.next();
  (void)B.next();
  double Third = B.next(); // nominal 0.4
  B.reset();
  double AfterReset = B.next(); // nominal 0.1 again
  EXPECT_LT(AfterReset, Third);
  EXPECT_LT(AfterReset, 0.1);
  EXPECT_GE(AfterReset, 0.05);
}

//===----------------------------------------------------------------------===//
// FrameReader under adversarial delivery.
//===----------------------------------------------------------------------===//

TEST(FrameAdversaryTest, SplitAtEveryBoundary) {
  // One request frame with a payload that contains header-like bytes, so a
  // split can land inside the magic, the header, the payload, and the
  // terminator.  Every split point must decode identically.
  server::Frame In{server::FrameType::Request,
                   "(islaris-frame 2 fake 3 0000000000000000)\nxyz\n"};
  std::string Wire = server::encodeFrame(In);
  for (size_t Split = 0; Split <= Wire.size(); ++Split) {
    server::FrameReader R;
    R.feed(Wire.data(), Split);
    server::Frame F;
    server::FrameReader::Status S1 = R.next(F);
    if (Split < Wire.size()) {
      ASSERT_EQ(S1, server::FrameReader::Status::NeedMore)
          << "split at " << Split;
      R.feed(Wire.data() + Split, Wire.size() - Split);
      ASSERT_EQ(R.next(F), server::FrameReader::Status::Frame)
          << "split at " << Split;
    } else {
      ASSERT_EQ(S1, server::FrameReader::Status::Frame);
    }
    EXPECT_EQ(F.Type, In.Type);
    EXPECT_EQ(F.Payload, In.Payload);
    EXPECT_EQ(R.buffered(), 0u);
  }
}

TEST(FrameAdversaryTest, InterleavedHeartbeats) {
  // Heartbeats dropped between (and mid-delivery around) real frames must
  // come out as ordinary frames, leaving the data frames intact.
  std::string Wire;
  Wire += server::encodeFrame({server::FrameType::Heartbeat, ""});
  Wire += server::encodeFrame({server::FrameType::Request, "alpha"});
  Wire += server::encodeFrame({server::FrameType::Heartbeat, ""});
  Wire += server::encodeFrame({server::FrameType::Heartbeat, ""});
  Wire += server::encodeFrame({server::FrameType::Done, "omega"});
  Wire += server::encodeFrame({server::FrameType::Heartbeat, ""});

  server::FrameReader R;
  std::vector<server::Frame> Out;
  for (size_t I = 0; I < Wire.size(); I += 3) { // 3-byte trickle
    size_t N = std::min<size_t>(3, Wire.size() - I);
    R.feed(Wire.data() + I, N);
    server::Frame F;
    while (R.next(F) == server::FrameReader::Status::Frame)
      Out.push_back(F);
  }
  ASSERT_EQ(Out.size(), 6u);
  unsigned Beats = 0;
  for (const server::Frame &F : Out)
    if (F.Type == server::FrameType::Heartbeat)
      ++Beats;
  EXPECT_EQ(Beats, 4u);
  EXPECT_EQ(Out[1].Payload, "alpha");
  EXPECT_EQ(Out[4].Payload, "omega");
}

TEST(FrameAdversaryTest, EveryCorruptionAttributed) {
  // Flip each byte of a valid frame in turn: the reader must answer every
  // mutation with Frame-then-garbage, Malformed, or NeedMore — immediately,
  // never by waiting for bytes that cannot help.
  std::string Wire =
      server::encodeFrame({server::FrameType::Request, "payload-bytes"});
  unsigned MalformedSeen = 0;
  for (size_t I = 0; I < Wire.size(); ++I) {
    std::string Mut = Wire;
    Mut[I] = char(Mut[I] ^ 0x5a);
    server::FrameReader R;
    R.feed(Mut.data(), Mut.size());
    server::Frame F;
    std::string Err;
    server::FrameReader::Status S = R.next(F, &Err);
    if (S == server::FrameReader::Status::Malformed) {
      ++MalformedSeen;
      EXPECT_FALSE(Err.empty()) << "mutation at byte " << I;
      // A dead stream stays dead: feeding more bytes cannot resurrect it.
      R.feed(Wire.data(), Wire.size());
      EXPECT_EQ(R.next(F), server::FrameReader::Status::Malformed);
    } else if (S == server::FrameReader::Status::Frame) {
      // A flip inside the payload is caught by the checksum, so a whole
      // frame can only emerge when the flip landed in... nowhere: header
      // and payload are both covered.  The only legal Frame outcome is a
      // *different* but self-consistent frame, which a single bit flip of
      // length/checksum digits cannot produce together.  Treat as failure.
      ADD_FAILURE() << "corrupt frame decoded at byte " << I;
    }
    // NeedMore is legal: a flip can lengthen the advertised payload, and
    // the reader is entitled to wait for it (the length bound and the
    // checksum still gate acceptance).
  }
  EXPECT_GT(MalformedSeen, Wire.size() / 2);
}

//===----------------------------------------------------------------------===//
// TCP transport + stale-socket policy.
//===----------------------------------------------------------------------===//

TEST(TcpTransportTest, TraceOverEphemeralTcp) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.SocketPath = "127.0.0.1:0"; // ephemeral: no fixed-port collisions
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  server::Endpoint Bound = S.boundEndpoint();
  EXPECT_EQ(Bound.K, server::Endpoint::Kind::Tcp);
  ASSERT_NE(Bound.Port, 0) << "port 0 must resolve to the kernel's choice";

  server::Client C;
  ASSERT_TRUE(C.connect(Bound.str(), Err)) << Err;
  server::Client::TraceResult R1, R2;
  ASSERT_TRUE(C.runTrace(addImm(1), R1, Err)) << Err;
  ASSERT_TRUE(R1.Ok);
  EXPECT_EQ(R1.Done.Source, "fresh");
  ASSERT_TRUE(C.runTrace(addImm(1), R2, Err)) << Err;
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R2.Done.Source, "warm");
  // Same bytes cold and warm: the wire changes nothing about results.
  EXPECT_EQ(R1.EntryText, R2.EntryText);

  S.requestShutdown();
  S.wait();
}

TEST(StaleSocketTest, SecondDaemonRefusesLiveSocket) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  server::Server S1(Cfg);
  std::string Err;
  ASSERT_TRUE(S1.start(Err)) << Err;

  // A second daemon on the same path must refuse, not steal.
  server::ServerConfig Cfg2 = baseConfig(D);
  Cfg2.CacheDir = D.Path + "/cache2";
  {
    server::Server S2(Cfg2);
    std::string Err2;
    EXPECT_FALSE(S2.start(Err2));
    EXPECT_NE(Err2.find("live daemon"), std::string::npos) << Err2;
  }

  // The first daemon is untouched by the refused bind.
  server::Client C;
  ASSERT_TRUE(C.connect(Cfg.SocketPath, Err)) << Err;
  EXPECT_TRUE(C.ping(Err)) << Err;
  C.close();
  S1.requestShutdown();
  S1.wait();
}

TEST(StaleSocketTest, StaleSocketReclaimed) {
  TempDir D;
  std::string Path = D.Path + "/stale.sock";
  // Manufacture a stale socket: bind without listening, then abandon the
  // fd — exactly the residue of a daemon that died without cleanup.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr), 0);
  ::close(Fd);
  EXPECT_FALSE(server::unixSocketAlive(Path));

  server::ServerConfig Cfg = baseConfig(D);
  Cfg.SocketPath = Path;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err; // reclaimed, not refused
  S.requestShutdown();
  S.wait();
}

//===----------------------------------------------------------------------===//
// Chaos: the proxy between client and server.
//===----------------------------------------------------------------------===//

TEST(ChaosTest, TracesBitIdenticalThroughHostileProxy) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.SocketPath = "127.0.0.1:0";
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::ChaosConfig CC;
  CC.Seed = 1234;
  CC.SplitProb = 0.4;
  CC.DelayProb = 0.3;
  CC.DelayMaxMs = 5;
  CC.CorruptProb = 0.05;
  CC.ResetProb = 0.02;
  server::ChaosProxy P(CC);
  ASSERT_TRUE(P.start("127.0.0.1:0", S.boundEndpoint().str(), Err)) << Err;

  // Direct (clean) answers first, as ground truth.
  std::vector<std::string> Direct;
  {
    server::Client C;
    ASSERT_TRUE(C.connect(S.boundEndpoint().str(), Err)) << Err;
    for (unsigned Imm = 1; Imm <= 6; ++Imm) {
      server::Client::TraceResult R;
      ASSERT_TRUE(C.runTrace(addImm(Imm), R, Err)) << Err;
      ASSERT_TRUE(R.Ok);
      Direct.push_back(R.EntryText);
    }
  }

  // Same requests through the hostile proxy: every one must complete (the
  // retry loop absorbs injected faults) and answer bit-identically.
  server::Client C(chaosClientOptions(99));
  ASSERT_TRUE(C.connect(P.boundEndpoint().str(), Err)) << Err;
  for (unsigned Imm = 1; Imm <= 6; ++Imm) {
    server::Client::TraceResult R;
    ASSERT_TRUE(C.runTrace(addImm(Imm), R, Err))
        << "imm " << Imm << ": " << Err;
    ASSERT_TRUE(R.Ok) << R.Done.Error;
    EXPECT_EQ(R.EntryText, Direct[Imm - 1])
        << "imm " << Imm << " diverged across the proxy";
  }

  server::ChaosStats CS = P.stats();
  EXPECT_GT(CS.Splits + CS.Delays + CS.Corruptions + CS.Resets, 0u)
      << "chaos config injected nothing; the test proved nothing";

  P.stop();
  S.requestShutdown();
  S.wait();
}

TEST(ChaosTest, ServerDrainsCleanlyAfterProxyKilledMidStream) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.SocketPath = "127.0.0.1:0";
  Cfg.ExecDelaySeconds = 0.3; // guarantee the kill lands mid-request
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  auto P = std::make_unique<server::ChaosProxy>(server::ChaosConfig{});
  ASSERT_TRUE(P->start("127.0.0.1:0", S.boundEndpoint().str(), Err)) << Err;

  server::ClientOptions CO;
  CO.MaxAttempts = 1; // no retries: we want the severed call to fail fast
  CO.SilenceTimeoutSeconds = 2;
  server::Client C(CO);
  ASSERT_TRUE(C.connect(P->boundEndpoint().str(), Err)) << Err;

  std::thread Killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    P->stop(); // mid-stream proxy death: client and server both see resets
  });
  server::Client::TraceResult R;
  bool Ok = C.runTrace(addImm(42), R, Err);
  Killer.join();
  // The severed call must fail (or squeak through if the result beat the
  // kill) — either way, promptly and attributably.  What it must NOT do is
  // hang; the ctest timeout enforces that.
  if (Ok) {
    EXPECT_TRUE(R.Ok || R.Rejected);
  }

  // The server survives the orphaned connection and still drains cleanly,
  // clean-shutdown markers included.
  S.requestShutdown();
  S.wait();
  EXPECT_TRUE(cache::hasCleanShutdownMarker(Cfg.CacheDir));
  EXPECT_TRUE(cache::hasCleanShutdownMarker(Cfg.CacheDir + "/sidecond"));
}

//===----------------------------------------------------------------------===//
// Overload shedding + per-client quotas.
//===----------------------------------------------------------------------===//

TEST(ShedTest, FloodIsShedWithRetryAfterWhilePoliteClientSucceeds) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.MaxQueueDepth = 2;
  Cfg.ExecDelaySeconds = 0.1;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Flood: distinct opcodes (no dedup), no reading of accepts — push the
  // queue past its bound as fast as the socket takes bytes.
  server::Client Flood;
  ASSERT_TRUE(Flood.connect(Cfg.SocketPath, Err)) << Err;
  for (unsigned I = 0; I < 24; ++I) {
    server::Request Req;
    Req.Id = 1000 + I;
    Req.K = server::Request::Kind::Trace;
    Req.Trace = addImm(100 + I);
    ASSERT_TRUE(Flood.send(
        {server::FrameType::Request, server::encodeRequest(Req)}, Err))
        << Err;
  }

  // Drain the flood client's frames: every request must answer accepted,
  // rejected(retry-after>0), or (for accepted ones, eventually) done.
  unsigned Sheds = 0, Accepted = 0, Dones = 0;
  uint64_t MaxHint = 0;
  server::Frame F;
  while ((Accepted == 0 || Dones < Accepted || Sheds == 0) &&
         Flood.recv(F, Err)) {
    if (F.Type == server::FrameType::Accepted)
      ++Accepted;
    else if (F.Type == server::FrameType::Rejected) {
      uint64_t Id = 0;
      std::string_view Body;
      std::string Reason;
      uint64_t RetryMs = 0;
      ASSERT_TRUE(server::decodeIdPayload(F.Payload, Id, Body));
      ASSERT_TRUE(server::decodeRejectBody(Body, Reason, RetryMs));
      EXPECT_NE(Reason.find("queue full"), std::string::npos);
      EXPECT_GT(RetryMs, 0u) << "sheds must carry a retry-after hint";
      MaxHint = std::max(MaxHint, RetryMs);
      ++Sheds;
    } else if (F.Type == server::FrameType::Done)
      ++Dones;
  }
  EXPECT_GT(Sheds, 0u);
  EXPECT_GT(Accepted, 0u);
  // Hints scale with queue pressure: a full queue hints above the base.
  EXPECT_GE(MaxHint, 100u);

  // A polite retrying client gets through the same storm.
  server::Client Polite(chaosClientOptions(5));
  ASSERT_TRUE(Polite.connect(Cfg.SocketPath, Err)) << Err;
  server::Client::TraceResult R;
  ASSERT_TRUE(Polite.runTrace(addImm(999), R, Err)) << Err;
  EXPECT_TRUE(R.Ok) << R.Done.Error;

  EXPECT_GT(S.stats().Shed, 0u);
  EXPECT_GE(S.stats().Rejected, S.stats().Shed);
  S.requestShutdown();
  S.wait();
}

TEST(ShedTest, PerClientQuotaIsolatesTheFlooder) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.MaxQueueDepth = 64; // global bound far away: the quota must act first
  Cfg.MaxInflightPerClient = 2;
  Cfg.ExecDelaySeconds = 0.1;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client Flood;
  ASSERT_TRUE(Flood.connect(Cfg.SocketPath, Err)) << Err;
  for (unsigned I = 0; I < 8; ++I) {
    server::Request Req;
    Req.Id = 2000 + I;
    Req.K = server::Request::Kind::Trace;
    Req.Trace = addImm(200 + I);
    ASSERT_TRUE(Flood.send(
        {server::FrameType::Request, server::encodeRequest(Req)}, Err));
  }
  unsigned QuotaSheds = 0, Accepted = 0, Dones = 0;
  server::Frame F;
  while ((Dones < Accepted || QuotaSheds == 0) && Flood.recv(F, Err)) {
    if (F.Type == server::FrameType::Accepted)
      ++Accepted;
    else if (F.Type == server::FrameType::Done)
      ++Dones;
    else if (F.Type == server::FrameType::Rejected) {
      uint64_t Id = 0;
      std::string_view Body;
      std::string Reason;
      uint64_t RetryMs = 0;
      ASSERT_TRUE(server::decodeIdPayload(F.Payload, Id, Body));
      ASSERT_TRUE(server::decodeRejectBody(Body, Reason, RetryMs));
      if (Reason.find("quota") != std::string::npos) {
        EXPECT_GT(RetryMs, 0u);
        ++QuotaSheds;
      }
    }
  }
  EXPECT_GT(QuotaSheds, 0u);
  EXPECT_LE(Accepted, 8u - QuotaSheds);
  S.requestShutdown();
  S.wait();
}

//===----------------------------------------------------------------------===//
// Deadlines.
//===----------------------------------------------------------------------===//

TEST(DeadlineTest, QueuedRequestExpiresServerSide) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.ExecDelaySeconds = 0.4; // each fresh execution holds the one worker
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(Cfg.SocketPath, Err)) << Err;
  // Request 1 occupies the worker; request 2's 50ms of patience dies in
  // the queue behind it.  Same connection: ordering is guaranteed.
  server::Request R1;
  R1.Id = 1;
  R1.K = server::Request::Kind::Trace;
  R1.Trace = addImm(301);
  server::Request R2;
  R2.Id = 2;
  R2.K = server::Request::Kind::Trace;
  R2.Trace = addImm(302);
  R2.DeadlineMs = 50;
  ASSERT_TRUE(
      C.send({server::FrameType::Request, server::encodeRequest(R1)}, Err));
  ASSERT_TRUE(
      C.send({server::FrameType::Request, server::encodeRequest(R2)}, Err));

  bool SawExpiry = false, SawFirstDone = false;
  server::Frame F;
  while ((!SawExpiry || !SawFirstDone) && C.recv(F, Err)) {
    if (F.Type != server::FrameType::Done)
      continue;
    server::DoneInfo DI;
    ASSERT_TRUE(server::decodeDone(F.Payload, DI));
    if (DI.Id == 1) {
      EXPECT_EQ(DI.Status, 0u);
      SawFirstDone = true;
    } else if (DI.Id == 2) {
      // Expired before execution: infrastructure status, "deadline"
      // source — never mistakable for a proof verdict.
      EXPECT_EQ(DI.Status, 2u);
      EXPECT_EQ(DI.Source, "deadline");
      SawExpiry = true;
    }
  }
  EXPECT_TRUE(SawExpiry) << Err;
  EXPECT_TRUE(SawFirstDone) << Err;
  EXPECT_GE(S.stats().DeadlineExpired, 1u);
  // The expired request never executed: exactly one fresh execution ran.
  EXPECT_EQ(S.stats().Executed, 1u);
  S.requestShutdown();
  S.wait();
}

//===----------------------------------------------------------------------===//
// Heartbeats + half-open reaping.
//===----------------------------------------------------------------------===//

TEST(HeartbeatTest, FlowInBothDirectionsDuringSlowWork) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.ExecDelaySeconds = 0.6;
  Cfg.HeartbeatSeconds = 0.1;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::ClientOptions CO;
  CO.HeartbeatSeconds = 0.1;
  server::Client C(CO);
  ASSERT_TRUE(C.connect(Cfg.SocketPath, Err)) << Err;
  server::Client::TraceResult R;
  ASSERT_TRUE(C.runTrace(addImm(77), R, Err)) << Err;
  EXPECT_TRUE(R.Ok);

  // 600ms of in-flight waiting at 100ms intervals: both directions beat.
  EXPECT_GT(S.stats().HeartbeatsSent, 0u);
  EXPECT_GT(S.stats().HeartbeatsSeen, 0u);
  EXPECT_GT(C.netStats().HeartbeatsSent, 0u);
  EXPECT_GT(C.netStats().HeartbeatsSeen, 0u);
  S.requestShutdown();
  S.wait();
}

TEST(HalfOpenTest, SilentIdleConnectionIsReaped) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.HalfOpenReapSeconds = 0.3;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(Cfg.SocketPath, Err)) << Err;
  ASSERT_TRUE(C.ping(Err)) << Err;
  // Fall silent without closing: the peer has "vanished".  The server
  // reaps once silence exceeds the threshold and nothing is in flight.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (S.openConnections() > 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(S.openConnections(), 0u);
  EXPECT_GE(S.stats().HalfOpenReaped, 1u);
  S.requestShutdown();
  S.wait();
}

TEST(HalfOpenTest, BusyConnectionIsNotReaped) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.HalfOpenReapSeconds = 0.2;
  Cfg.ExecDelaySeconds = 0.6; // in-flight work outlives the silence bound
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Heartbeats off: the connection is silent the whole 600ms wait, but its
  // one in-flight request must shield it from the reaper.
  server::ClientOptions CO;
  CO.HeartbeatSeconds = 0;
  server::Client C(CO);
  ASSERT_TRUE(C.connect(Cfg.SocketPath, Err)) << Err;
  server::Client::TraceResult R;
  ASSERT_TRUE(C.runTrace(addImm(88), R, Err)) << Err;
  EXPECT_TRUE(R.Ok) << "silent-but-waiting client was reaped mid-request";
  EXPECT_EQ(S.stats().HalfOpenReaped, 0u);
  S.requestShutdown();
  S.wait();
}

//===----------------------------------------------------------------------===//
// Fleet failover under hostile transports (PR 10).
//===----------------------------------------------------------------------===//

TEST(FailoverChaosTest, ResetStormRotatesToHealthyEndpoint) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.SocketPath = "127.0.0.1:0";
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // A proxy that resets every chunk: the first endpoint accepts dials but
  // never completes a handshake — the worst kind of "up but broken" peer.
  server::ChaosConfig CC;
  CC.Seed = 7;
  CC.ResetProb = 1.0;
  server::ChaosProxy P(CC);
  ASSERT_TRUE(P.start("127.0.0.1:0", S.boundEndpoint().str(), Err)) << Err;

  server::Client C(chaosClientOptions(21));
  ASSERT_TRUE(C.connect(P.boundEndpoint().str() + "," +
                            S.boundEndpoint().str(),
                        Err))
      << Err;
  // The broken endpoint is marked dead and the ring settled on the healthy
  // one; the success reset the shared retry backoff (a later hiccup starts
  // from the base delay again, not wherever the storm left the exponent).
  EXPECT_EQ(C.activeEndpoint(), S.boundEndpoint().str());
  EXPECT_EQ(C.retryBackoffAttempt(), 0u);

  server::Client::TraceResult R;
  ASSERT_TRUE(C.runTrace(addImm(90), R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(C.retryBackoffAttempt(), 0u);

  P.stop();
  S.requestShutdown();
  S.wait();
}

TEST(FailoverChaosTest, BackoffResetsAfterMidStreamRecovery) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.SocketPath = "127.0.0.1:0";
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Moderate reset rate: some attempts die mid-request and are retried
  // with growing backoff; the run must still converge bit-identically, and
  // every delivered result must leave the backoff streak at zero.
  server::ChaosConfig CC;
  CC.Seed = 4242;
  CC.ResetProb = 0.25;
  CC.SplitProb = 0.3;
  server::ChaosProxy P(CC);
  ASSERT_TRUE(P.start("127.0.0.1:0", S.boundEndpoint().str(), Err)) << Err;

  server::Client Direct;
  ASSERT_TRUE(Direct.connect(S.boundEndpoint().str(), Err)) << Err;
  server::Client C(chaosClientOptions(22));
  ASSERT_TRUE(C.connect(P.boundEndpoint().str(), Err)) << Err;
  for (unsigned Imm = 91; Imm <= 96; ++Imm) {
    server::Client::TraceResult Want, Got;
    ASSERT_TRUE(Direct.runTrace(addImm(Imm), Want, Err)) << Err;
    ASSERT_TRUE(C.runTrace(addImm(Imm), Got, Err)) << "imm " << Imm << ": "
                                                   << Err;
    EXPECT_EQ(Got.EntryText, Want.EntryText) << "imm " << Imm;
    EXPECT_EQ(C.retryBackoffAttempt(), 0u) << "imm " << Imm;
  }

  P.stop();
  S.requestShutdown();
  S.wait();
}

TEST(FailoverChaosTest, SaturatedTcpBacklogClassifiesAsTimeout) {
  // A listener that never accepts, with a zero backlog already filled by
  // squatters: further dials get their SYNs dropped and run out the
  // connect timer.  That is a *timeout*, not a refusal — the failover
  // client must charge it to the backoff budget (slow ≠ down) yet still
  // end up on the healthy endpoint.
  int Lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Lfd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = 0;
  ASSERT_EQ(::bind(Lfd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr), 0);
  ASSERT_EQ(::listen(Lfd, 0), 0);
  socklen_t Len = sizeof Addr;
  ASSERT_EQ(::getsockname(Lfd, reinterpret_cast<sockaddr *>(&Addr), &Len), 0);
  std::string Stuck =
      "127.0.0.1:" + std::to_string(ntohs(Addr.sin_port));

  // Fill the accept queue so later SYNs are dropped rather than accepted.
  std::vector<int> Squatters;
  for (int I = 0; I < 4; ++I) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      break;
    // Non-blocking connect: a queued (or in-progress) squat is enough.
    std::string CErr;
    server::DialError DE = server::DialError::None;
    int C = server::connectSpec(Stuck, 0.2, CErr, &DE);
    if (C >= 0)
      Squatters.push_back(C);
    ::close(Fd);
  }

  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.SocketPath = "127.0.0.1:0";
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::ClientOptions O = chaosClientOptions(23);
  O.ConnectTimeoutSeconds = 0.3; // make the timeout observable in ms
  server::Client C(O);
  ASSERT_TRUE(C.connect(Stuck + "," + S.boundEndpoint().str(), Err)) << Err;
  EXPECT_EQ(C.activeEndpoint(), S.boundEndpoint().str());
  EXPECT_GE(C.netStats().DialsTimedOut, 1u);
  EXPECT_EQ(C.netStats().DialsRefused, 0u);

  server::Client::TraceResult R;
  ASSERT_TRUE(C.runTrace(addImm(97), R, Err)) << Err;
  EXPECT_TRUE(R.Ok);

  for (int Fd : Squatters)
    ::close(Fd);
  ::close(Lfd);
  S.requestShutdown();
  S.wait();
}
