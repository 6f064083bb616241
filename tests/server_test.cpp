//===- tests/server_test.cpp - islarisd protocol & scheduling tests -------===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
// Covers the resident-server subsystem end to end:
//
//  - frame codec: round-trip (including byte-at-a-time delivery), the
//    longest-valid-prefix property, and precise rejection of truncated,
//    oversized, and checksum-corrupt frames;
//  - request/done payload codecs;
//  - live-server behavior over a real Unix socket: handshake, version
//    negotiation, malformed-input handling, admission control, round-robin
//    fairness under a flooding client, drain-on-shutdown delivery
//    guarantees, clean-shutdown markers, and concurrent study requests
//    whose rows match a serial suite run;
//  - the headline dedup claim: two clients concurrently requesting the
//    same trace trigger exactly one execution, and both receive the result
//    bit-identically — matching a direct BatchDriver run byte for byte.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Server.h"

#include "arch/AArch64.h"
#include "cache/BatchDriver.h"
#include "cache/Scrub.h"
#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"
#include "frontend/CaseStudies.h"
#include "models/Models.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
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
    char T[] = "/tmp/islaris-srv-XXXXXX";
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
  C.Workers = 1; // serial execution: deterministic scheduling tests
  return C;
}

/// add x0, x0, #imm — a distinct, cheap, concrete execution per imm.
server::TraceRequest addImm(unsigned Imm) {
  server::TraceRequest T;
  T.Arch = "aarch64";
  T.Opcode = 0x91000000u | ((Imm & 0xfffu) << 10);
  return T;
}

server::Request traceRequest(uint64_t Id, unsigned Imm) {
  server::Request R;
  R.Id = Id;
  R.K = server::Request::Kind::Trace;
  R.Trace = addImm(Imm);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame codec.
//===----------------------------------------------------------------------===//

TEST(FrameCodecTest, RoundTripByteAtATime) {
  std::vector<server::Frame> In = {
      {server::FrameType::Hello, "hi"},
      {server::FrameType::Trace, std::string("binary\0payload\n)", 16)},
      {server::FrameType::Pong, ""},
  };
  std::string Wire;
  for (const server::Frame &F : In)
    Wire += server::encodeFrame(F);
  // The bytes on the wire are pinned: a frame is a protocol-3 frame.
  EXPECT_EQ(server::encodeFrame(In[0]),
            "(islaris-frame 2 hello 2 ffc6a682a123ab06)\nhi\n");

  // Deliver one byte per feed: every split point must be survivable.
  server::FrameReader R;
  std::vector<server::Frame> Out;
  for (char C : Wire) {
    R.feed(&C, 1);
    server::Frame F;
    while (R.next(F) == server::FrameReader::Status::Frame)
      Out.push_back(F);
  }
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Type, In[I].Type);
    EXPECT_EQ(Out[I].Payload, In[I].Payload);
  }
  EXPECT_EQ(R.buffered(), 0u);
}

TEST(FrameCodecTest, LongestValidPrefixThenMalformed) {
  std::string Wire = server::encodeFrame({server::FrameType::Ping, ""});
  Wire += server::encodeFrame({server::FrameType::Done, "abc"});
  Wire += "this is not a frame\n";

  server::FrameReader R;
  R.feed(Wire.data(), Wire.size());
  server::Frame F;
  EXPECT_EQ(R.next(F), server::FrameReader::Status::Frame);
  EXPECT_EQ(F.Type, server::FrameType::Ping);
  EXPECT_EQ(R.next(F), server::FrameReader::Status::Frame);
  EXPECT_EQ(F.Type, server::FrameType::Done);
  std::string Err;
  EXPECT_EQ(R.next(F, &Err), server::FrameReader::Status::Malformed);
  EXPECT_FALSE(Err.empty());
  // A dead stream stays dead even if valid bytes follow.
  std::string Valid = server::encodeFrame({server::FrameType::Pong, ""});
  R.feed(Valid.data(), Valid.size());
  EXPECT_EQ(R.next(F), server::FrameReader::Status::Malformed);
}

TEST(FrameCodecTest, ChecksumCorruptionIsMalformed) {
  std::string Wire = server::encodeFrame({server::FrameType::Stats, "payload"});
  Wire[Wire.size() - 3] ^= 0x20; // flip a payload byte under the checksum
  server::FrameReader R;
  R.feed(Wire.data(), Wire.size());
  server::Frame F;
  std::string Err;
  EXPECT_EQ(R.next(F, &Err), server::FrameReader::Status::Malformed);
  EXPECT_NE(Err.find("checksum"), std::string::npos) << Err;
}

TEST(FrameCodecTest, OldFrameFormatVersionKillsTheStream) {
  // A frame-format-1 peer (records summed by byte-wise FNV-1a) is refused
  // at its first frame, not misread.
  std::string Wire = "(islaris-frame 1 hello 2 08ba5f07b55ec3da)\nhi\n";
  server::FrameReader R;
  R.feed(Wire.data(), Wire.size());
  server::Frame F;
  std::string Err;
  EXPECT_EQ(R.next(F, &Err), server::FrameReader::Status::Malformed);
  EXPECT_EQ(Err, "unsupported frame format version");
}

TEST(FrameCodecTest, SealedIdFrameMatchesEncodedFrame) {
  // One body buffer serves several ids in turn, byte-identical to the
  // copying encoder each time.
  std::string Body = "(islaris-trace-cache 1 00)\n(trace (cycle))\n";
  std::string Buf(server::IdFrameRoom, ' ');
  Buf += Body;
  Buf.append(2, ' ');
  for (uint64_t Id : {uint64_t(7), uint64_t(123456789), UINT64_MAX})
    EXPECT_EQ(server::sealIdFrame(Buf, server::FrameType::Trace, Id),
              server::encodeFrame({server::FrameType::Trace,
                                   server::encodeIdPayload(Id, Body)}))
        << Id;
}

TEST(FrameCodecTest, OversizedPayloadLengthIsMalformed) {
  // A header advertising more than MaxFramePayload must die at the header,
  // before any allocation on behalf of the corrupt length; so must lengths
  // that overflow (20 digits) or would wrap an offset (2^64-1).
  for (std::string Len : {std::to_string(server::MaxFramePayload + 1),
                          std::string("99999999999999999999"),
                          std::string("18446744073709551615")}) {
    std::string Wire =
        "(islaris-frame 2 trace " + Len + " 0000000000000000)\n";
    server::FrameReader R;
    R.feed(Wire.data(), Wire.size());
    server::Frame F;
    EXPECT_EQ(R.next(F), server::FrameReader::Status::Malformed) << Len;
  }
}

TEST(FrameCodecTest, PartialHeaderNeedsMore) {
  std::string Wire = server::encodeFrame({server::FrameType::Bye, ""});
  server::FrameReader R;
  // Any strict prefix is NeedMore, never Malformed.
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    server::FrameReader Fresh;
    Fresh.feed(Wire.data(), Cut);
    server::Frame F;
    EXPECT_EQ(Fresh.next(F), server::FrameReader::Status::NeedMore)
        << "prefix of " << Cut << " bytes";
  }
}

//===----------------------------------------------------------------------===//
// Payload codecs.
//===----------------------------------------------------------------------===//

TEST(PayloadCodecTest, TraceRequestRoundTrip) {
  server::Request In = traceRequest(42, 7);
  In.Trace.SymMask = 0x1f;
  In.Trace.Assumes.push_back({"PSTATE", "EL", 2, 2});
  In.Trace.Assumes.push_back({"R3", "", 64, 0xdeadbeefull});
  In.Trace.CacheRegReads = false;
  In.Trace.MaxPaths = 17;

  server::Request Out;
  ASSERT_TRUE(server::decodeRequest(server::encodeRequest(In), Out));
  EXPECT_EQ(Out.Id, 42u);
  EXPECT_EQ(Out.K, server::Request::Kind::Trace);
  EXPECT_EQ(Out.Trace.Arch, "aarch64");
  EXPECT_EQ(Out.Trace.Opcode, In.Trace.Opcode);
  EXPECT_EQ(Out.Trace.SymMask, 0x1fu);
  ASSERT_EQ(Out.Trace.Assumes.size(), 2u);
  EXPECT_EQ(Out.Trace.Assumes[0].Base, "PSTATE");
  EXPECT_EQ(Out.Trace.Assumes[0].Field, "EL");
  EXPECT_EQ(Out.Trace.Assumes[1].Value, 0xdeadbeefull);
  EXPECT_FALSE(Out.Trace.CacheRegReads);
  EXPECT_TRUE(Out.Trace.SinksOnly);
  EXPECT_EQ(Out.Trace.MaxPaths, 17u);
}

TEST(PayloadCodecTest, StudyAndStatsRoundTrip) {
  server::Request S;
  S.Id = 9;
  S.K = server::Request::Kind::Study;
  S.Study = "memcpy-arm";
  server::Request Out;
  ASSERT_TRUE(server::decodeRequest(server::encodeRequest(S), Out));
  EXPECT_EQ(Out.K, server::Request::Kind::Study);
  EXPECT_EQ(Out.Study, "memcpy-arm");

  server::Request St;
  St.Id = 10;
  St.K = server::Request::Kind::Stats;
  ASSERT_TRUE(server::decodeRequest(server::encodeRequest(St), Out));
  EXPECT_EQ(Out.K, server::Request::Kind::Stats);
  EXPECT_EQ(Out.Id, 10u);
}

TEST(PayloadCodecTest, MalformedRequestRejected) {
  server::Request Out;
  EXPECT_FALSE(server::decodeRequest("", Out));
  EXPECT_FALSE(server::decodeRequest("not a request", Out));
  // Numbers are parsed strictly: a "-1" width must not wrap to 2^64-1 and
  // an "abc" id must not read as 0.
  server::Request In = traceRequest(1, 7);
  In.Trace.Assumes.push_back({"PSTATE", "EL", 2, 2});
  std::string Good = server::encodeRequest(In);
  ASSERT_TRUE(server::decodeRequest(Good, Out));
  std::string NegWidth = Good;
  size_t At = NegWidth.find("2:EL 2 ");
  ASSERT_NE(At, std::string::npos) << Good;
  NegWidth.replace(At, 7, "2:EL -1 ");
  EXPECT_FALSE(server::decodeRequest(NegWidth, Out));
  std::string BadId = Good;
  BadId.replace(0, 1, "abc");
  EXPECT_FALSE(server::decodeRequest(BadId, Out));
  // A string length near 2^64 must not wrap the cursor backwards.
  std::string HugeLen = "18446744073709551615:x";
  support::wire::Cursor C(HugeLen);
  C.str();
  EXPECT_TRUE(C.Fail);
  // Nor may a double that is not one read as 0.
  std::string NotADouble = "abc";
  support::wire::Cursor D(NotADouble);
  D.f();
  EXPECT_TRUE(D.Fail);
}

TEST(PayloadCodecTest, DoneRoundTrip) {
  server::DoneInfo In;
  In.Id = 5;
  In.Status = 2;
  In.Source = "failed";
  In.Attempts = 3;
  In.Seconds = 1.25;
  In.Error = "solver timeout";
  server::DoneInfo Out;
  ASSERT_TRUE(server::decodeDone(server::encodeDone(In), Out));
  EXPECT_EQ(Out.Id, 5u);
  EXPECT_EQ(Out.Status, 2u);
  EXPECT_EQ(Out.Source, "failed");
  EXPECT_EQ(Out.Attempts, 3u);
  EXPECT_DOUBLE_EQ(Out.Seconds, 1.25);
  EXPECT_EQ(Out.Error, "solver timeout");
}

TEST(PayloadCodecTest, IdPayloadRoundTrip) {
  uint64_t Id = 0;
  std::string_view Body;
  std::string Payload =
      server::encodeIdPayload(77, "body with spaces\nand newlines");
  ASSERT_TRUE(server::decodeIdPayload(Payload, Id, Body));
  EXPECT_EQ(Id, 77u);
  EXPECT_EQ(Body, "body with spaces\nand newlines");
  EXPECT_FALSE(server::decodeIdPayload("77", Id, Body));
}

TEST(PayloadCodecTest, RejectBodyRoundTripAndBareReasonRefused) {
  std::string Reason;
  uint64_t RetryMs = 0;
  ASSERT_TRUE(server::decodeRejectBody(
      server::encodeRejectBody("queue full", 250), Reason, RetryMs));
  EXPECT_EQ(Reason, "queue full");
  EXPECT_EQ(RetryMs, 250u);
  ASSERT_TRUE(server::decodeRejectBody(
      server::encodeRejectBody("unknown case study: x", 0), Reason, RetryMs));
  EXPECT_EQ(Reason, "unknown case study: x");
  EXPECT_EQ(RetryMs, 0u);

  // One protocol version: a bare reason (or a reason without its hint) is
  // a malformed body, not a hint-0 rejection.
  Reason = "untouched";
  EXPECT_FALSE(server::decodeRejectBody("server draining", Reason, RetryMs));
  EXPECT_FALSE(server::decodeRejectBody("4:full", Reason, RetryMs));
  EXPECT_FALSE(server::decodeRejectBody("", Reason, RetryMs));
  EXPECT_EQ(Reason, "untouched");
}

TEST(PayloadCodecTest, HealthRoundTripsEveryField) {
  server::HealthInfo In;
  In.Version = 3;
  In.Pid = 4242;
  In.UptimeSeconds = 12.5;
  In.QueueDepth = 7;
  In.ActiveJobs = 2;
  In.Draining = 1;
  In.Generation = 5;
  In.ModelFpHex = "0123456789abcdef";
  In.DegradedFlags = server::HealthDegradedCacheOff;
  In.PublishFailures = 9;
  In.DegradedSeconds = 0.75;
  server::HealthInfo Out;
  ASSERT_TRUE(server::decodeHealth(server::encodeHealth(In), Out));
  EXPECT_EQ(Out.Version, 3u);
  EXPECT_EQ(Out.Pid, 4242u);
  EXPECT_DOUBLE_EQ(Out.UptimeSeconds, 12.5);
  EXPECT_EQ(Out.QueueDepth, 7u);
  EXPECT_EQ(Out.ActiveJobs, 2u);
  EXPECT_EQ(Out.Draining, 1u);
  EXPECT_EQ(Out.Generation, 5u);
  EXPECT_EQ(Out.ModelFpHex, "0123456789abcdef");
  EXPECT_EQ(Out.DegradedFlags, server::HealthDegradedCacheOff);
  EXPECT_EQ(Out.PublishFailures, 9u);
  EXPECT_DOUBLE_EQ(Out.DegradedSeconds, 0.75);
  EXPECT_FALSE(server::decodeHealth("", Out));
}

TEST(PayloadCodecTest, HelloRoundTripsEveryFieldAndVersionOnlyDecodes) {
  server::HelloInfo In;
  In.Version = server::ProtocolVersion;
  In.ClientName = "codec test";
  In.DefaultDeadlineMs = 1500;
  In.HeartbeatMs = 200;
  server::HelloInfo Out;
  ASSERT_TRUE(server::decodeHello(server::encodeHello(In), Out));
  EXPECT_EQ(Out.Version, server::ProtocolVersion);
  EXPECT_EQ(Out.ClientName, "codec test");
  EXPECT_EQ(Out.DefaultDeadlineMs, 1500u);
  EXPECT_EQ(Out.HeartbeatMs, 200u);

  // A minimal hello carries only the version; the extras default to zero.
  ASSERT_TRUE(server::decodeHello("3", Out));
  EXPECT_EQ(Out.Version, 3u);
  EXPECT_TRUE(Out.ClientName.empty());
  EXPECT_EQ(Out.DefaultDeadlineMs, 0u);
  EXPECT_EQ(Out.HeartbeatMs, 0u);
  EXPECT_FALSE(server::decodeHello("", Out));
}

//===----------------------------------------------------------------------===//
// Live server: handshake and malformed input.
//===----------------------------------------------------------------------===//

TEST(ServerTest, HandshakePingStats) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
  EXPECT_TRUE(C.ping(Err)) << Err;

  std::string Json;
  ASSERT_TRUE(C.getStats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"requests\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"queue_depth\""), std::string::npos) << Json;

  S.requestShutdown();
  S.wait();
  EXPECT_FALSE(S.running());
}

TEST(ServerTest, WrongProtocolVersionGetsErrorAndClose) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // A hello claiming any version but the one the server speaks — an old
  // one or a future one — must be answered with an error frame and a
  // close, not silence.
  for (uint64_t Ver : {uint64_t(2), server::ProtocolVersion + 41}) {
    server::Client C;
    ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
    std::ostringstream OS;
    support::wire::putU64(OS, Ver);
    ASSERT_TRUE(C.send({server::FrameType::Hello, OS.str()}, Err)) << Err;
    server::Frame F;
    ASSERT_TRUE(C.recv(F, Err)) << Err;
    EXPECT_EQ(F.Type, server::FrameType::Error) << Ver;
    EXPECT_NE(F.Payload.find("version"), std::string::npos) << F.Payload;
    EXPECT_FALSE(C.recv(F, Err)) << Ver; // connection closed
  }

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, MalformedBytesGetErrorAndConnectionDies) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
  ASSERT_TRUE(C.sendRaw("complete garbage, not a frame\n", Err)) << Err;
  server::Frame F;
  ASSERT_TRUE(C.recv(F, Err)) << Err;
  EXPECT_EQ(F.Type, server::FrameType::Error);
  EXPECT_FALSE(C.recv(F, Err)); // the stream is dead

  // A truncated-but-valid-prefix frame must NOT kill the connection: the
  // reader waits for the rest.
  server::Client C2;
  ASSERT_TRUE(C2.connect(S.socketPath(), Err)) << Err;
  std::string Wire = server::encodeFrame({server::FrameType::Ping, ""});
  ASSERT_TRUE(C2.sendRaw(Wire.substr(0, Wire.size() / 2), Err)) << Err;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(C2.sendRaw(Wire.substr(Wire.size() / 2), Err)) << Err;
  ASSERT_TRUE(C2.recv(F, Err)) << Err;
  EXPECT_EQ(F.Type, server::FrameType::Pong);

  EXPECT_GE(S.stats().Malformed, 1u);
  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, UnknownArchitectureAndStudyAreRejected) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;

  server::TraceRequest T = addImm(1);
  T.Arch = "m68k";
  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(T, TR, Err)) << Err;
  EXPECT_FALSE(TR.Ok);
  EXPECT_TRUE(TR.Rejected);
  EXPECT_NE(TR.RejectReason.find("architecture"), std::string::npos);

  server::Client::StudyResult SR;
  ASSERT_TRUE(C.runStudy("frobnicate", SR, Err)) << Err;
  EXPECT_TRUE(SR.Rejected);

  EXPECT_EQ(S.stats().Rejected, 2u);
  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, OversizedAssumeWidthIsRejectedAtAdmission) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;

  // A wire-supplied width near 2^32 would otherwise allocate ~512MB per
  // assume in the reader thread before the trace key is even computed.
  server::TraceRequest T = addImm(1);
  T.Assumes.push_back({"PSTATE", "EL", 0xfffffff0u, 2});
  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(T, TR, Err)) << Err;
  EXPECT_FALSE(TR.Ok);
  EXPECT_TRUE(TR.Rejected);
  EXPECT_NE(TR.RejectReason.find("width"), std::string::npos)
      << TR.RejectReason;

  // Zero-width assumes are equally meaningless.
  T.Assumes.clear();
  T.Assumes.push_back({"PSTATE", "EL", 0, 0});
  ASSERT_TRUE(C.runTrace(T, TR, Err)) << Err;
  EXPECT_TRUE(TR.Rejected);

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, DisconnectedClientsAreReaped) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Churn short-lived connections, then verify the connection table does
  // not retain them (each leaked Conn would pin an fd + a reader thread).
  for (int I = 0; I < 8; ++I) {
    server::Client C;
    ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
    ASSERT_TRUE(C.ping(Err)) << Err;
    C.close();
  }
  // The accept loop reaps on its 200ms poll tick.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_EQ(S.stats().Connections, 8u);
  EXPECT_EQ(S.openConnections(), 0u);

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, MalformedRequestNumbersGetErrorFrameAndDaemonSurvives) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // A frame that passes the envelope (type, length, checksum all valid)
  // but whose payload is not a decodable request: hostile tokens where the
  // codec expects numbers and length-prefixed strings.  The daemon must
  // answer with an attributed error frame, not die in the reader thread.
  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
  ASSERT_TRUE(C.send({server::FrameType::Request,
                      "18446744073709551616999 not-a-length-prefixed-kind"},
                     Err))
      << Err;
  server::Frame F;
  ASSERT_TRUE(C.recv(F, Err)) << Err;
  EXPECT_EQ(F.Type, server::FrameType::Error);
  EXPECT_NE(F.Payload.find("malformed"), std::string::npos) << F.Payload;
  EXPECT_FALSE(C.recv(F, Err)); // that connection is closed...

  // ...but the daemon itself is unharmed: a fresh client gets real work.
  server::Client C2;
  ASSERT_TRUE(C2.connect(S.socketPath(), Err)) << Err;
  server::Client::TraceResult TR;
  ASSERT_TRUE(C2.runTrace(addImm(5), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok) << TR.Done.Error;
  EXPECT_GE(S.stats().Malformed, 1u);

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, PoisonedCacheEntryIsAMissNotACrash) {
  // A checksum-VALID entry with a hostile number inside used to reach
  // std::stoul in the trace-store parser on a worker thread and take the
  // whole daemon down via std::terminate.  It must instead be an
  // attributed miss: the corpse is quarantined and the request simply
  // re-executes fresh.
  TempDir D;
  std::string Err;
  server::TraceRequest T = addImm(0x77);
  std::string FreshText;
  {
    server::Server S(baseConfig(D));
    ASSERT_TRUE(S.start(Err)) << Err;
    server::Client C;
    ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
    server::Client::TraceResult TR;
    ASSERT_TRUE(C.runTrace(T, TR, Err)) << Err;
    ASSERT_TRUE(TR.Ok) << TR.Done.Error;
    EXPECT_EQ(TR.Done.Source, "fresh");
    FreshText = TR.EntryText;
    S.requestShutdown();
    S.wait();
  }

  // Replace the first stats number with 2^64 and re-wrap so the envelope
  // checksum still verifies — only the semantic parser can catch this.
  std::vector<fs::path> Entries;
  for (const auto &E :
       fs::recursive_directory_iterator(D.Path + "/cache"))
    if (E.is_regular_file() && E.path().extension() == ".itc")
      Entries.push_back(E.path());
  ASSERT_EQ(Entries.size(), 1u);
  std::string Raw;
  {
    std::ifstream In(Entries[0], std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Raw = SS.str();
  }
  std::string Payload;
  cache::Fingerprint Key;
  ASSERT_TRUE(cache::Fingerprint::fromHex(Entries[0].stem().string(), Key));
  ASSERT_EQ(cache::unwrapDurableEntry(Raw, Key, Payload),
            cache::EnvelopeResult::Ok);
  size_t At = Payload.find("(stats ");
  ASSERT_NE(At, std::string::npos);
  size_t NumBegin = At + 7;
  size_t NumEnd = Payload.find(' ', NumBegin);
  ASSERT_NE(NumEnd, std::string::npos);
  Payload.replace(NumBegin, NumEnd - NumBegin, "18446744073709551616");
  {
    std::ofstream Out(Entries[0], std::ios::binary | std::ios::trunc);
    Out << cache::wrapDurableEntry(Key, Payload);
  }

  server::Server S(baseConfig(D));
  ASSERT_TRUE(S.start(Err)) << Err;
  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(T, TR, Err)) << Err; // pre-fix: daemon terminated
  ASSERT_TRUE(TR.Ok) << TR.Done.Error;
  EXPECT_EQ(TR.Done.Source, "fresh"); // the poisoned entry never served
  EXPECT_EQ(TR.EntryText, FreshText); // re-execution is bit-identical
  EXPECT_TRUE(C.ping(Err)) << Err;    // and the daemon is still alive

  S.requestShutdown();
  S.wait();
}

//===----------------------------------------------------------------------===//
// Execution: warm hits, bit-identical results, case studies over the wire.
//===----------------------------------------------------------------------===//

TEST(ServerTest, FreshThenWarmBitIdenticalAndMatchesDirectDriver) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;

  server::TraceRequest T = addImm(0x123);
  server::Client::TraceResult First, Second;
  ASSERT_TRUE(C.runTrace(T, First, Err)) << Err;
  ASSERT_TRUE(First.Ok) << First.Done.Error;
  EXPECT_EQ(First.Done.Source, "fresh");
  ASSERT_FALSE(First.EntryText.empty());

  ASSERT_TRUE(C.runTrace(T, Second, Err)) << Err;
  ASSERT_TRUE(Second.Ok) << Second.Done.Error;
  EXPECT_EQ(Second.Done.Source, "warm");
  EXPECT_EQ(Second.EntryText, First.EntryText);

  EXPECT_EQ(S.stats().Executed, 1u);
  EXPECT_GE(S.stats().WarmHits, 1u);
  S.requestShutdown();
  S.wait();

  // The streamed artifact must be byte-identical to what a direct (no
  // server) BatchDriver run of the same request serializes — the wire adds
  // framing, never content.
  isla::Assumptions Assume;
  isla::ExecOptions EO;
  EO.CacheRegReads = true;
  EO.SinksOnly = true;
  EO.MaxPaths = 64;
  cache::TraceJob TJ;
  TJ.Model = &models::aarch64Model();
  TJ.ArchName = "aarch64";
  TJ.Op = isla::OpcodeSpec{BitVec(32, T.Opcode), BitVec(32, 0)};
  TJ.Assume = &Assume;
  TJ.Opts = EO;
  cache::TraceCache Local; // in-memory, throwaway
  cache::BatchDriver BD(1);
  auto R = BD.run({TJ}, &Local);
  ASSERT_TRUE(R.front().Ok) << R.front().Error;
  EXPECT_EQ(cache::TraceCache::serializeEntry(R.front().Key, R.front().Entry),
            First.EntryText);
}

TEST(ServerTest, FreshTraceLeavesTheSideCondStoreAlone) {
  // b.eq on an unconstrained PSTATE.Z: the executor prunes both sides of
  // the fork with its own solver.  The daemon's side-condition store
  // serves study proofs only, so a fresh trace neither reads nor publishes
  // there.
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;

  server::TraceRequest T;
  T.Arch = "aarch64";
  T.Opcode = arch::aarch64::enc::bcond(arch::aarch64::Cond::EQ, 8);
  server::Client::TraceResult R;
  ASSERT_TRUE(C.runTrace(T, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Done.Error;
  EXPECT_EQ(R.Done.Source, "fresh");
  cache::SideCondStats SS = S.sideCondStore()->stats();
  EXPECT_EQ(SS.Misses, 0u);
  EXPECT_EQ(SS.Hits + SS.DiskHits, 0u);
  EXPECT_EQ(SS.Insertions, 0u);
  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, CaseStudyStreamsRowsOverTheWire) {
  TempDir D;
  server::Server S(baseConfig(D));
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;

  unsigned Streamed = 0;
  server::Client::StudyResult R;
  ASSERT_TRUE(C.runStudy("rbit", R, Err,
                         [&](const frontend::CaseResult &) { ++Streamed; }))
      << Err;
  ASSERT_TRUE(R.Ok) << R.Done.Error;
  EXPECT_EQ(R.Done.Status, 0u);
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(Streamed, 1u);
  EXPECT_EQ(R.Rows[0].Name, "rbit");
  EXPECT_TRUE(R.Rows[0].Ok) << R.Rows[0].Error;

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, ConcurrentSuitesMatchSerialRows) {
  // The serial reference: the second of two suite runs over shared stores,
  // i.e. the rows of a run whose every trace and side condition is warm.
  cache::TraceCache RefCache;
  cache::SideCondStore RefSideCond;
  frontend::SuiteOptions O;
  O.Cache = &RefCache;
  O.SideCond = &RefSideCond;
  frontend::runAllCaseStudies(O);
  std::vector<frontend::CaseResult> Ref = frontend::runAllCaseStudies(O);

  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.Workers = 2;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  {
    // Warm the daemon's stores the same way, so the concurrent pair below
    // reads a warm store whatever order its studies interleave in.
    server::Client C;
    server::Client::StudyResult Warm;
    ASSERT_TRUE(C.connect(S.socketPath(), Err) &&
                C.runStudy("suite", Warm, Err))
        << Err;
    ASSERT_EQ(Warm.Done.Status, 0u) << Warm.Done.Error;
  }

  // Two clients at once: both suites execute together, one per worker.
  server::Client::StudyResult Res[2];
  std::string Errs[2];
  bool Sent[2] = {false, false};
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < 2; ++I)
    Clients.emplace_back([&, I] {
      server::Client C;
      Sent[I] = C.connect(S.socketPath(), Errs[I]) &&
                C.runStudy("suite", Res[I], Errs[I]);
    });
  for (std::thread &T : Clients)
    T.join();

  auto untimed = [](frontend::CaseResult R) {
    R.IslaSeconds = 0;
    R.Proof.TotalSeconds = 0;
    R.Proof.SideCondSeconds = 0;
    return frontend::encodeCaseResult(R);
  };
  for (unsigned I = 0; I < 2; ++I) {
    ASSERT_TRUE(Sent[I]) << Errs[I];
    ASSERT_TRUE(Res[I].Ok) << Res[I].Done.Error;
    EXPECT_EQ(Res[I].Done.Status, 0u) << Res[I].Done.Error;
    ASSERT_EQ(Res[I].Rows.size(), Ref.size());
    for (size_t J = 0; J < Ref.size(); ++J)
      EXPECT_EQ(untimed(Res[I].Rows[J]), untimed(Ref[J]))
          << "client " << I << ", row " << J << " (" << Ref[J].Name << ")";
  }

  S.requestShutdown();
  S.wait();
}

//===----------------------------------------------------------------------===//
// Scheduling: dedup, fairness, admission control, drain.
//===----------------------------------------------------------------------===//

TEST(ServerTest, TwoClientsSameRequestOneExecutionBitIdentical) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  // One worker + a deliberate execution delay: client B's identical
  // request provably arrives while A's is still in flight.
  Cfg.ExecDelaySeconds = 0.4;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::TraceRequest T = addImm(0x456);
  server::Client::TraceResult RA, RB;
  std::string ErrA;
  bool SentA = false;
  std::thread A([&] {
    server::Client CA;
    SentA = CA.connect(S.socketPath(), ErrA) && CA.runTrace(T, RA, ErrA);
  });
  // Give A time to be admitted and picked up by the (sole) worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server::Client CB;
  ASSERT_TRUE(CB.connect(S.socketPath(), Err)) << Err;
  ASSERT_TRUE(CB.runTrace(T, RB, Err)) << Err;
  A.join();
  ASSERT_TRUE(SentA) << ErrA;

  ASSERT_TRUE(RA.Ok) << RA.Done.Error;
  ASSERT_TRUE(RB.Ok) << RB.Done.Error;
  ASSERT_FALSE(RA.EntryText.empty());
  EXPECT_EQ(RA.EntryText, RB.EntryText);
  EXPECT_EQ(RA.Done.Source, "fresh");
  EXPECT_EQ(RB.Done.Source, "dedup");

  server::ServerStats St = S.stats();
  EXPECT_EQ(St.Executed, 1u) << "dedup must not re-execute";
  EXPECT_EQ(St.DedupFanout, 1u);
  EXPECT_EQ(St.TraceRequests, 2u);

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, FloodingClientCannotStarveAnother) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.ExecDelaySeconds = 0.05;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  constexpr unsigned Flood = 12;
  Clock::time_point FlooderLastDone{};
  std::string FloodErr;
  bool FloodOk = false;
  std::thread Flooder([&] {
    server::Client C;
    if (!C.connect(S.socketPath(), FloodErr))
      return;
    for (unsigned I = 0; I < Flood; ++I)
      if (!C.send({server::FrameType::Request,
                   server::encodeRequest(traceRequest(I + 1, 0x500 + I))},
                  FloodErr))
        return;
    unsigned Dones = 0;
    server::Frame F;
    while (Dones < Flood && C.recv(F, FloodErr))
      if (F.Type == server::FrameType::Done)
        ++Dones;
    FlooderLastDone = Clock::now();
    FloodOk = Dones == Flood;
  });

  // Let the flood fill the queue, then submit one request from a second
  // client; round-robin must serve it long before the flood drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server::Client Victim;
  ASSERT_TRUE(Victim.connect(S.socketPath(), Err)) << Err;
  server::Client::TraceResult R;
  ASSERT_TRUE(Victim.runTrace(addImm(0x700), R, Err)) << Err;
  Clock::time_point VictimDone = Clock::now();
  ASSERT_TRUE(R.Ok) << R.Done.Error;

  Flooder.join();
  ASSERT_TRUE(FloodOk) << FloodErr;
  EXPECT_LT(VictimDone.time_since_epoch().count(),
            FlooderLastDone.time_since_epoch().count())
      << "victim finished after the whole flood: starved";

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, AdmissionControlRejectsPastQueueBound) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.MaxQueueDepth = 1;
  Cfg.ExecDelaySeconds = 0.3;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
  constexpr unsigned Sent = 6;
  for (unsigned I = 0; I < Sent; ++I)
    ASSERT_TRUE(C.send({server::FrameType::Request,
                        server::encodeRequest(traceRequest(I + 1, 0x600 + I))},
                       Err))
        << Err;

  std::set<uint64_t> Accepted, Rejected, Done;
  server::Frame F;
  while (Accepted.size() + Rejected.size() < Sent ||
         Done.size() < Accepted.size()) {
    ASSERT_TRUE(C.recv(F, Err)) << Err;
    uint64_t Id = 0;
    std::string_view Body;
    if (F.Type == server::FrameType::Accepted) {
      ASSERT_TRUE(server::decodeIdPayload(F.Payload, Id, Body));
      Accepted.insert(Id);
    } else if (F.Type == server::FrameType::Rejected) {
      ASSERT_TRUE(server::decodeIdPayload(F.Payload, Id, Body));
      EXPECT_NE(Body.find("queue full"), std::string::npos) << Body;
      Rejected.insert(Id);
    } else if (F.Type == server::FrameType::Done) {
      server::DoneInfo DI;
      ASSERT_TRUE(server::decodeDone(F.Payload, DI));
      Done.insert(DI.Id);
    }
  }
  EXPECT_EQ(Accepted.size() + Rejected.size(), size_t(Sent));
  EXPECT_GE(Rejected.size(), 1u) << "queue bound never enforced";
  EXPECT_GE(Accepted.size(), 1u);
  EXPECT_EQ(Done, Accepted) << "every accepted id gets exactly its done";
  EXPECT_EQ(S.stats().Rejected, uint64_t(Rejected.size()));

  S.requestShutdown();
  S.wait();
}

TEST(ServerTest, DrainDeliversEveryAcceptedDoneThenMarksClean) {
  TempDir D;
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.ExecDelaySeconds = 0.1;
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
  constexpr unsigned Sent = 5;
  for (unsigned I = 0; I < Sent; ++I)
    ASSERT_TRUE(C.send({server::FrameType::Request,
                        server::encodeRequest(traceRequest(I + 1, 0x800 + I))},
                       Err))
        << Err;
  // Shutdown lands while the requests are queued: the drain must still
  // complete every one of them before the goodbye.
  ASSERT_TRUE(C.send({server::FrameType::Shutdown, ""}, Err)) << Err;
  // The goodbye and socket teardown happen inside wait() — run it
  // concurrently, the way the daemon's main thread does.
  std::thread Drainer([&] { S.wait(); });

  std::set<uint64_t> Accepted, Done;
  bool SawBye = false;
  server::Frame F;
  while (C.recv(F, Err)) {
    uint64_t Id = 0;
    std::string_view Body;
    if (F.Type == server::FrameType::Accepted) {
      ASSERT_TRUE(server::decodeIdPayload(F.Payload, Id, Body));
      if (Id != 0) // id 0 is the shutdown ack
        Accepted.insert(Id);
    } else if (F.Type == server::FrameType::Done) {
      server::DoneInfo DI;
      ASSERT_TRUE(server::decodeDone(F.Payload, DI));
      Done.insert(DI.Id);
    } else if (F.Type == server::FrameType::Bye) {
      SawBye = true;
    }
  }
  EXPECT_EQ(Accepted.size(), size_t(Sent));
  EXPECT_EQ(Done, Accepted)
      << "drain dropped an accepted request's done frame";
  EXPECT_TRUE(SawBye);

  Drainer.join();
  // A clean drain attests both stores, so the next open can skip its scrub.
  EXPECT_TRUE(cache::hasCleanShutdownMarker(Cfg.CacheDir));
  EXPECT_TRUE(cache::hasCleanShutdownMarker(Cfg.CacheDir + "/sidecond"));
}

TEST(ServerTest, ShutdownDoesNotWaitOutTheAcceptPollTick) {
  // The accept loop polls the listener in 200 ms ticks; requestShutdown
  // must wake it instead of leaving wait() to sit out the rest of a tick.
  // Each cycle connects a client first (restarting the poll) and shuts
  // down over that connection, the way `islaris-cli shutdown` does.
  TempDir D;
  std::vector<double> WaitMs;
  for (int I = 0; I < 5; ++I) {
    server::ServerConfig Cfg = baseConfig(D);
    Cfg.Persist = false;
    server::Server S(Cfg);
    std::string Err;
    ASSERT_TRUE(S.start(Err)) << Err;
    server::Client C;
    ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
    ASSERT_TRUE(C.shutdownServer(Err)) << Err;
    Clock::time_point T0 = Clock::now();
    S.wait();
    WaitMs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count());
  }
  std::sort(WaitMs.begin(), WaitMs.end());
  // Typically a few milliseconds; the bound leaves a loaded runner ample
  // room and still sits well under the 200 ms tick.
  EXPECT_LT(WaitMs[WaitMs.size() / 2], 100.0)
      << "median wait() " << WaitMs[WaitMs.size() / 2] << " ms";
}

TEST(ServerTest, OverlongModelLiteralFailsTheReloadNotTheDaemon) {
  TempDir D;
  fs::create_directories(D.Path + "/models");
  server::ServerConfig Cfg = baseConfig(D);
  Cfg.ModelDir = D.Path + "/models"; // empty now: builtins serve
  server::Server S(Cfg);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  {
    std::ofstream Bad(D.Path + "/models/aarch64.sail");
    Bad << "val x = 99999999999999999999999999\n";
  }
  // The watcher thread that runs a SIGHUP reload has no catch: the parse
  // must return an error, never throw.
  std::string RErr;
  EXPECT_FALSE(S.reloadModels(RErr));
  EXPECT_NE(RErr.find("integer literal out of range"), std::string::npos)
      << RErr;
  EXPECT_EQ(S.stats().ReloadFailures, 1u);

  server::Client C;
  ASSERT_TRUE(C.connect(S.socketPath(), Err)) << Err;
  server::Client::TraceResult TR;
  ASSERT_TRUE(C.runTrace(addImm(3), TR, Err)) << Err;
  EXPECT_TRUE(TR.Ok);
  S.requestShutdown();
  S.wait();
}
