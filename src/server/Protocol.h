//===- server/Protocol.h - islarisd wire protocol ---------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framing and request/response payloads of the islarisd protocol: a
/// byte stream of self-delimiting, individually checksummed frames, each
/// one record of the shared grammar (support/Record.h) with the frame type
/// as its tag,
///
///   (islaris-frame 2 <type> <payload-len> <sum-hex>)\n<payload>\n
///
/// so the same recovery property holds on the wire as in the journal: a
/// reader accepts the longest valid prefix of the stream and attributes the
/// first malformed byte precisely (truncated header, bad length, checksum
/// mismatch) instead of desynchronizing silently.  Payload fields use the
/// support::wire codec the journal's CaseResult rows already travel in.
///
/// Conversation shape:
///
///   client                               server
///   ------                               ------
///   hello(deadline, hb-interval) ───────▶
///          ◀─────────────────────────────  welcome
///   request(id, deadline, kind) ────────▶
///          ◀─────────────────────────────  accepted(id) | rejected(id,
///          ◀─────────────────────────────    retry-after-ms)
///          ◀─────────────────────────────  trace(id)* | row(id)* | stats(id)
///          ◀─────────────────────────────  done(id, status, source)
///   heartbeat ◀────────────────────────▶    (either direction, any time;
///                                            refreshes peer liveness,
///                                            never answered)
///   ping   ─────────────────────────────▶
///          ◀─────────────────────────────  pong
///   shutdown ───────────────────────────▶   (drain: every accepted id
///          ◀─────────────────────────────    still gets its done)
///          ◀─────────────────────────────  bye
///
/// Versioning: the frame header carries the format version (2); `hello`
/// and `welcome` carry the protocol version.  A server that cannot speak
/// the client's protocol answers with an `error` frame and closes.
///
/// Hostile-network discipline (PR 8): request payloads carry the client's
/// end-to-end deadline (milliseconds of patience remaining) so the server
/// can abandon work nobody is waiting for; `rejected` payloads carry a
/// retry-after hint so shed clients back off by the server's estimate
/// instead of guessing; `heartbeat` frames flow in both directions so a
/// half-open connection (peer vanished without a FIN) is detectable by
/// silence on an otherwise-busy link.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SERVER_PROTOCOL_H
#define ISLARIS_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace islaris::server {

/// The one protocol version spoken by hello/welcome (heartbeat frames,
/// request deadlines, retry-after hints on rejections, the `health`
/// readiness probe and the `reload` hot-model-reload request).  A hello
/// with any other version is refused with an error frame and a close.
inline constexpr uint64_t ProtocolVersion = 3;

/// Hard bound on a frame payload; a header advertising more is malformed
/// (protects the reader from allocating on behalf of a corrupt length
/// field).
inline constexpr uint64_t MaxFramePayload = 64ull << 20;

enum class FrameType : uint8_t {
  // client -> server
  Hello,
  Request,
  Ping,
  Shutdown,
  // server -> client
  Welcome,
  Accepted,
  Rejected,
  Trace,
  Row,
  Diag,
  Stats,
  Done,
  Pong,
  Bye,
  Error,
  // either direction: liveness only, never answered
  Heartbeat,
  // server -> client (protocol 3): readiness-probe snapshot
  Health,
};

/// Stable wire token ("hello", "request", ...).
const char *frameTypeName(FrameType T);
bool frameTypeFromName(std::string_view Name, FrameType &Out);

struct Frame {
  FrameType Type = FrameType::Error;
  std::string Payload;
};

/// A frame decoded in place: Payload views the FrameReader's buffer and is
/// valid until the reader's next feed().
struct FrameView {
  FrameType Type = FrameType::Error;
  std::string_view Payload;
};

/// Serializes one frame in the record grammar above.
std::string encodeFrame(const Frame &F);

/// Room sealIdFrame needs in front of the body: the most a frame header
/// and an "<id> <len>:" prefix can take.
inline constexpr size_t IdFrameRoom = 128;

/// encodeFrame({T, encodeIdPayload(Id, Body)}) without copying the body,
/// for large bodies sent to one id after another: \p Buf is IdFrameRoom
/// bytes of room, then the body, then two spare bytes.  Writes the frame
/// around the body in place, touching only the room and the spare bytes,
/// and returns it as a view into \p Buf.
std::string_view sealIdFrame(std::string &Buf, FrameType T, uint64_t Id);

/// Incremental frame decoder over a byte stream.  Feed bytes as they
/// arrive; next() yields complete frames until the buffer runs dry or a
/// malformed frame kills the stream.
class FrameReader {
public:
  void feed(const char *Data, size_t N);

  enum class Status {
    Frame,    ///< \p Out holds the next frame.
    NeedMore, ///< No complete frame buffered yet.
    Malformed, ///< Unrecoverable framing error (including another frame
               ///< format version); the stream is dead.
  };
  Status next(Frame &Out, std::string *Err = nullptr);
  /// next() without copying the payload out of the reader's buffer.
  Status next(FrameView &Out, std::string *Err = nullptr);

  /// Bytes buffered but not yet consumed by next().
  size_t buffered() const { return Buf.size() - Pos; }

private:
  std::string Buf;
  size_t Pos = 0;
  bool Dead = false;
};

//===----------------------------------------------------------------------===//
// Request payloads.
//===----------------------------------------------------------------------===//

/// One wire-transportable symbolic-execution request: a single opcode with
/// optional symbolic bits, concrete register assumptions, and the semantic
/// ExecOptions knobs.  (Predicate constraints and separation-logic specs
/// are C++ values and do not travel; whole-spec verification goes through
/// the named case-study requests instead.)
struct TraceRequest {
  std::string Arch; ///< "aarch64" | "rv64".
  uint32_t Opcode = 0;
  uint32_t SymMask = 0; ///< 1-bits of the opcode that are symbolic.
  struct Assume {
    std::string Base, Field;
    unsigned Width = 0;
    uint64_t Value = 0;
  };
  std::vector<Assume> Assumes;
  bool CacheRegReads = true;
  bool SinksOnly = true;
  unsigned MaxPaths = 64;
};

/// A parsed `request` frame payload.
struct Request {
  uint64_t Id = 0;
  /// Client patience remaining at send time, in milliseconds; 0 = wait
  /// forever.  The server rebases it to its own clock at admission and
  /// abandons (or never starts) work whose waiters have all timed out.
  uint64_t DeadlineMs = 0;
  /// Health and Reload are protocol-3 kinds: Health is answered inline
  /// (never queued — a readiness probe must work under a full queue),
  /// Reload swaps the server's model set for freshly parsed sources.
  enum class Kind : uint8_t {
    Trace,
    Study,
    Stats,
    Health,
    Reload,
  } K = Kind::Trace;
  TraceRequest Trace;  ///< Valid when K == Trace.
  std::string Study;   ///< Study name or "suite" when K == Study.
};

std::string encodeRequest(const Request &R);
bool decodeRequest(const std::string &Payload, Request &Out);

/// A parsed `hello` frame payload.  decodeHello tolerates the absence of
/// the fields after Version (they stay empty/zero), so a minimal hello
/// still handshakes.
struct HelloInfo {
  uint64_t Version = ProtocolVersion;
  std::string ClientName;
  /// Connection-default request deadline; a request's own DeadlineMs
  /// overrides it.  0 = none.
  uint64_t DefaultDeadlineMs = 0;
  /// Interval at which this client intends to emit heartbeats while
  /// waiting (informational; lets the server size its silence threshold).
  uint64_t HeartbeatMs = 0;
};

std::string encodeHello(const HelloInfo &H);
bool decodeHello(const std::string &Payload, HelloInfo &Out);

/// `rejected` body codec (the body inside the id-tagged payload): a
/// human-readable reason plus a machine retry-after hint.  RetryAfterMs 0
/// means "do not retry — the request itself is invalid"; nonzero marks a
/// load shed worth retrying after the hinted delay.  decodeRejectBody
/// refuses a body without both fields (false, outputs untouched).
std::string encodeRejectBody(const std::string &Reason,
                             uint64_t RetryAfterMs);
bool decodeRejectBody(std::string_view Body, std::string &Reason,
                      uint64_t &RetryAfterMs);

/// `health` frame payload (protocol 3): the readiness snapshot a probe or
/// a failover client reads before committing work to a daemon.  Decoding
/// tolerates missing trailing fields (same discipline as decodeHello) so
/// later versions can append fields without breaking v3 readers.
struct HealthInfo {
  uint64_t Version = ProtocolVersion; ///< Responder's protocol version.
  uint64_t Pid = 0;
  double UptimeSeconds = 0;
  uint64_t QueueDepth = 0; ///< Queued-but-not-executing requests.
  uint64_t ActiveJobs = 0; ///< Requests executing right now.
  uint64_t Draining = 0;   ///< 1 once a shutdown drain has begun.
  /// Model generation: reload count since start.  A SIGHUP/`reload` that
  /// swapped the model set bumps it, so a probe can confirm a rollout.
  uint64_t Generation = 0;
  /// Store generation fingerprint: combined fingerprint of the live model
  /// set (the same fingerprints the generation registry is keyed on).
  std::string ModelFpHex;
  /// Degraded-mode flags; bit 0 = cache-off (store publishes failing, disk
  /// I/O suspended until the self-heal probe succeeds).
  uint64_t DegradedFlags = 0;
  uint64_t PublishFailures = 0; ///< Store publish failures observed.
  double DegradedSeconds = 0;   ///< Total time spent degraded.
};

inline constexpr uint64_t HealthDegradedCacheOff = 1;

std::string encodeHealth(const HealthInfo &H);
bool decodeHealth(std::string_view Payload, HealthInfo &Out);

/// `done` frame payload: terminal status of one request id.
struct DoneInfo {
  uint64_t Id = 0;
  /// Suite-style status: 0 ok, 1 proof failure, 2 infrastructure error.
  unsigned Status = 0;
  /// Where the result came from: "fresh", "warm", "dedup", "failed".
  std::string Source;
  uint64_t Attempts = 0;
  double Seconds = 0; ///< Server-side queue + execution time.
  std::string Error;  ///< Failure message when Status != 0.
};

std::string encodeDone(const DoneInfo &D);
bool decodeDone(std::string_view Payload, DoneInfo &Out);

/// Payload helpers for the id-tagged streaming frames (trace / row / stats
/// / accepted / rejected): "<id> <len>:<body>".  The decoded body is a view
/// into \p Payload.
std::string encodeIdPayload(uint64_t Id, const std::string &Body);
bool decodeIdPayload(std::string_view Payload, uint64_t &Id,
                     std::string_view &Body);

} // namespace islaris::server

#endif // ISLARIS_SERVER_PROTOCOL_H
