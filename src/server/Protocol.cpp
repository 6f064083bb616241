//===- server/Protocol.cpp - islarisd wire protocol ---------------------------===//

#include "server/Protocol.h"

#include "support/Record.h"
#include "support/Wire.h"

#include <algorithm>
#include <iterator>
#include <sstream>

using namespace islaris;
using namespace islaris::server;
using islaris::support::wire::Cursor;
using islaris::support::wire::putStr;
using islaris::support::wire::putU64;

static constexpr std::string_view FrameMagic = "islaris-frame";
static constexpr uint64_t FrameVersion = 2;

/// Wire tokens, in FrameType order.
static constexpr const char *FrameNames[] = {
    "hello",    "request", "ping",  "shutdown",  "welcome", "accepted",
    "rejected", "trace",   "row",   "diag",      "stats",   "done",
    "pong",     "bye",     "error", "heartbeat", "health",
};
static_assert(std::size(FrameNames) == size_t(FrameType::Health) + 1);
// sealIdFrame's room: the longest header plus "<20 digits> <20 digits>:".
static_assert(IdFrameRoom >= 42 + [] {
  size_t Most = 0;
  for (std::string_view N : FrameNames)
    Most = std::max(Most, support::recordHeaderRoom(FrameMagic, N));
  return Most;
}());

const char *islaris::server::frameTypeName(FrameType T) {
  return size_t(T) < std::size(FrameNames) ? FrameNames[size_t(T)] : "error";
}

bool islaris::server::frameTypeFromName(std::string_view Name,
                                        FrameType &Out) {
  for (size_t I = 0; I < std::size(FrameNames); ++I)
    if (Name == FrameNames[I]) {
      Out = FrameType(I);
      return true;
    }
  return false;
}

std::string islaris::server::encodeFrame(const Frame &F) {
  return support::encodeRecord(FrameMagic, FrameVersion,
                               frameTypeName(F.Type), F.Payload);
}

std::string_view islaris::server::sealIdFrame(std::string &Buf, FrameType T,
                                              uint64_t Id) {
  size_t End = Buf.size() - 2; // the payload's closing space goes here
  std::string Prefix =
      std::to_string(Id) + " " + std::to_string(End - IdFrameRoom) + ":";
  size_t Begin = IdFrameRoom - Prefix.size();
  Buf.replace(Begin, Prefix.size(), Prefix);
  Buf[End] = ' ';
  size_t Start = support::sealRecord(Buf, Begin, End + 1, FrameMagic,
                                     FrameVersion, frameTypeName(T));
  return std::string_view(Buf).substr(Start);
}

void FrameReader::feed(const char *Data, size_t N) {
  // Compact lazily: once the consumed prefix dominates, shift it off so a
  // long-lived connection does not grow its buffer without bound.
  if (Pos > 4096 && Pos > Buf.size() / 2) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  Buf.append(Data, N);
}

FrameReader::Status FrameReader::next(Frame &Out, std::string *Err) {
  FrameView V;
  Status S = next(V, Err);
  if (S == Status::Frame) {
    Out.Type = V.Type;
    Out.Payload.assign(V.Payload);
  }
  return S;
}

FrameReader::Status FrameReader::next(FrameView &Out, std::string *Err) {
  auto Die = [&](const char *Why) {
    Dead = true;
    if (Err)
      *Err = Why;
    return Status::Malformed;
  };
  if (Dead)
    return Die("frame stream already dead");

  std::string_view Rest(Buf.data() + Pos, Buf.size() - Pos);
  support::RecordParse R =
      support::parseRecord(Rest, FrameMagic, FrameVersion, MaxFramePayload);
  switch (R.S) {
  case support::RecordParse::NeedMore:
    // Headers are short; a kilobyte without a newline is corruption, not a
    // slow sender.
    if (Rest.size() > 1024 && Rest.substr(0, 1024).find('\n') ==
                                  std::string_view::npos)
      return Die("unterminated frame header");
    return Status::NeedMore;
  case support::RecordParse::BadVersion:
    return Die("unsupported frame format version");
  case support::RecordParse::Malformed:
    return Die(R.Why);
  case support::RecordParse::Ok:
    break;
  }
  FrameType T;
  if (!frameTypeFromName(R.Tag, T))
    return Die("unknown frame type");
  Out.Type = T;
  Out.Payload = R.Payload;
  Pos += R.Consumed;
  return Status::Frame;
}

//===----------------------------------------------------------------------===//
// Payload codecs.
//===----------------------------------------------------------------------===//

std::string islaris::server::encodeRequest(const Request &R) {
  std::ostringstream OS;
  putU64(OS, R.Id);
  putU64(OS, R.DeadlineMs);
  switch (R.K) {
  case Request::Kind::Trace: {
    putStr(OS, "trace");
    const TraceRequest &T = R.Trace;
    putStr(OS, T.Arch);
    putU64(OS, T.Opcode);
    putU64(OS, T.SymMask);
    putU64(OS, T.CacheRegReads);
    putU64(OS, T.SinksOnly);
    putU64(OS, T.MaxPaths);
    putU64(OS, T.Assumes.size());
    for (const TraceRequest::Assume &A : T.Assumes) {
      putStr(OS, A.Base);
      putStr(OS, A.Field);
      putU64(OS, A.Width);
      putU64(OS, A.Value);
    }
    break;
  }
  case Request::Kind::Study:
    putStr(OS, "study");
    putStr(OS, R.Study);
    break;
  case Request::Kind::Stats:
    putStr(OS, "stats");
    break;
  case Request::Kind::Health:
    putStr(OS, "health");
    break;
  case Request::Kind::Reload:
    putStr(OS, "reload");
    break;
  }
  return OS.str();
}

bool islaris::server::decodeRequest(const std::string &Payload, Request &Out) {
  Cursor C(Payload);
  Out = Request();
  Out.Id = C.u64();
  Out.DeadlineMs = C.u64();
  std::string Kind = C.str();
  if (Kind == "trace") {
    Out.K = Request::Kind::Trace;
    TraceRequest &T = Out.Trace;
    T.Arch = C.str();
    T.Opcode = uint32_t(C.u64());
    T.SymMask = uint32_t(C.u64());
    T.CacheRegReads = C.u64() != 0;
    T.SinksOnly = C.u64() != 0;
    T.MaxPaths = unsigned(C.u64());
    uint64_t N = C.u64();
    if (C.Fail || N > 4096)
      return false;
    T.Assumes.resize(size_t(N));
    for (TraceRequest::Assume &A : T.Assumes) {
      A.Base = C.str();
      A.Field = C.str();
      A.Width = unsigned(C.u64());
      A.Value = C.u64();
    }
  } else if (Kind == "study") {
    Out.K = Request::Kind::Study;
    Out.Study = C.str();
  } else if (Kind == "stats") {
    Out.K = Request::Kind::Stats;
  } else if (Kind == "health") {
    Out.K = Request::Kind::Health;
  } else if (Kind == "reload") {
    Out.K = Request::Kind::Reload;
  } else {
    return false;
  }
  return !C.Fail;
}

std::string islaris::server::encodeHello(const HelloInfo &H) {
  std::ostringstream OS;
  putU64(OS, H.Version);
  putStr(OS, H.ClientName);
  putU64(OS, H.DefaultDeadlineMs);
  putU64(OS, H.HeartbeatMs);
  return OS.str();
}

bool islaris::server::decodeHello(const std::string &Payload, HelloInfo &Out) {
  Cursor C(Payload);
  Out = HelloInfo();
  Out.Version = C.u64();
  if (C.Fail)
    return false;
  Out.ClientName = C.str();
  if (C.Fail) {
    // Version-only hello: acceptable (the extras are informational).
    Out.ClientName.clear();
    return true;
  }
  // Missing deadline/heartbeat fields stay 0.
  uint64_t Deadline = C.u64();
  if (C.Fail)
    return true;
  Out.DefaultDeadlineMs = Deadline;
  uint64_t Hb = C.u64();
  if (!C.Fail)
    Out.HeartbeatMs = Hb;
  return true;
}

std::string islaris::server::encodeHealth(const HealthInfo &H) {
  std::ostringstream OS;
  putU64(OS, H.Version);
  putU64(OS, H.Pid);
  support::wire::putF(OS, H.UptimeSeconds);
  putU64(OS, H.QueueDepth);
  putU64(OS, H.ActiveJobs);
  putU64(OS, H.Draining);
  putU64(OS, H.Generation);
  putStr(OS, H.ModelFpHex);
  putU64(OS, H.DegradedFlags);
  putU64(OS, H.PublishFailures);
  support::wire::putF(OS, H.DegradedSeconds);
  return OS.str();
}

bool islaris::server::decodeHealth(std::string_view Payload,
                                   HealthInfo &Out) {
  Cursor C(Payload);
  Out = HealthInfo();
  Out.Version = C.u64();
  Out.Pid = C.u64();
  Out.UptimeSeconds = C.f();
  Out.QueueDepth = C.u64();
  Out.ActiveJobs = C.u64();
  Out.Draining = C.u64();
  Out.Generation = C.u64();
  if (C.Fail)
    return false;
  // Trailing fields appended by later versions decode fail-soft, the same
  // discipline as decodeHello: absent fields keep their zero defaults.
  std::string Fp = C.str();
  if (C.Fail)
    return true;
  Out.ModelFpHex = Fp;
  uint64_t Flags = C.u64();
  if (C.Fail)
    return true;
  Out.DegradedFlags = Flags;
  uint64_t PF = C.u64();
  if (C.Fail)
    return true;
  Out.PublishFailures = PF;
  double DS = C.f();
  if (!C.Fail)
    Out.DegradedSeconds = DS;
  return true;
}

std::string islaris::server::encodeRejectBody(const std::string &Reason,
                                              uint64_t RetryAfterMs) {
  std::ostringstream OS;
  putStr(OS, Reason);
  putU64(OS, RetryAfterMs);
  return OS.str();
}

bool islaris::server::decodeRejectBody(std::string_view Body,
                                       std::string &Reason,
                                       uint64_t &RetryAfterMs) {
  Cursor C(Body);
  std::string R = C.str();
  uint64_t RA = C.u64();
  if (C.Fail)
    return false;
  Reason = std::move(R);
  RetryAfterMs = RA;
  return true;
}

std::string islaris::server::encodeDone(const DoneInfo &D) {
  std::ostringstream OS;
  putU64(OS, D.Id);
  putU64(OS, D.Status);
  putStr(OS, D.Source);
  putU64(OS, D.Attempts);
  support::wire::putF(OS, D.Seconds);
  putStr(OS, D.Error);
  return OS.str();
}

bool islaris::server::decodeDone(std::string_view Payload, DoneInfo &Out) {
  Cursor C(Payload);
  Out = DoneInfo();
  Out.Id = C.u64();
  Out.Status = unsigned(C.u64());
  Out.Source = C.str();
  Out.Attempts = C.u64();
  Out.Seconds = C.f();
  Out.Error = C.str();
  return !C.Fail;
}

std::string islaris::server::encodeIdPayload(uint64_t Id,
                                             const std::string &Body) {
  std::ostringstream OS;
  putU64(OS, Id);
  putStr(OS, Body);
  return OS.str();
}

bool islaris::server::decodeIdPayload(std::string_view Payload, uint64_t &Id,
                                      std::string_view &Body) {
  Cursor C(Payload);
  Id = C.u64();
  Body = C.strView();
  return !C.Fail;
}
