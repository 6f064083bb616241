//===- server/Client.cpp - islarisd client library -----------------------------===//

#include "server/Client.h"

#include "server/Transport.h"
#include "support/Backoff.h"
#include "support/Wire.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace islaris;
using namespace islaris::server;

namespace {
double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
} // namespace

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Reader = FrameReader(); // drop any half-frame from the dead stream
}

bool Client::sendHello(std::string &Err) {
  HelloInfo H;
  H.Version = ProtocolVersion;
  H.ClientName = Opt.Name;
  H.DefaultDeadlineMs = Opt.DeadlineMs;
  H.HeartbeatMs = uint64_t(Opt.HeartbeatSeconds * 1000);
  if (!send(Frame{FrameType::Hello, encodeHello(H)}, Err))
    return false;
  Frame F;
  if (!recv(F, Err))
    return false;
  if (F.Type == FrameType::Error) {
    Err = "server refused handshake: " + F.Payload;
    return false;
  }
  if (F.Type != FrameType::Welcome) {
    Err = std::string("expected welcome, got ") + frameTypeName(F.Type);
    return false;
  }
  support::wire::Cursor C(F.Payload);
  uint64_t Ver = C.u64();
  if (C.Fail || Ver != ProtocolVersion) {
    Err = "server speaks protocol " + std::to_string(Ver) + ", client " +
          std::to_string(ProtocolVersion);
    return false;
  }
  return true;
}

bool Client::dialEndpoint(size_t I, std::string &Err, DialError &DE) {
  close();
  DE = DialError::None;
  Fd = connectSpec(Eps[I].Spec, Opt.ConnectTimeoutSeconds, Err, &DE);
  if (Fd < 0)
    return false;
  if (!sendHello(Err)) {
    close();
    // A listener that accepted but failed the handshake is trouble of the
    // non-rotate-forever kind; classify like a slow endpoint.
    DE = DialError::Other;
    return false;
  }
  return true;
}

bool Client::dialAny(std::string &Err) {
  if (Eps.empty()) {
    Err = "no endpoint to dial";
    return false;
  }
  // When every endpoint is dead and still backing off, probe anyway: a
  // client with nothing reachable should be trying, not deadlocking on
  // its own pacing (the caller's retry backoff still bounds the rate).
  double Now = nowSec();
  bool AnyDue = false;
  for (const EndpointHealth &E : Eps)
    if (!E.Dead || E.RetryAtSec <= Now) {
      AnyDue = true;
      break;
    }
  std::string LastErr;
  for (size_t Hop = 0; Hop < Eps.size(); ++Hop) {
    size_t I = (Cur + Hop) % Eps.size();
    EndpointHealth &E = Eps[I];
    if (AnyDue && E.Dead && E.RetryAtSec > Now)
      continue; // not due for a re-probe yet
    DialError DE = DialError::None;
    std::string DErr;
    if (dialEndpoint(I, DErr, DE)) {
      if (I != Cur) {
        Cur = I;
        Net.EndpointRotations++;
      }
      E.Dead = false;
      E.Probe.reset();
      return true;
    }
    LastErr = E.Spec + ": " + DErr;
    E.Dead = true;
    E.RetryAtSec = nowSec() + E.Probe.next();
    if (DE == DialError::Refused) {
      // Nobody listening: definitively down right now — rotate to the
      // next candidate immediately, no backoff sleep.
      Net.DialsRefused++;
      continue;
    }
    if (DE == DialError::Timeout)
      Net.DialsTimedOut++;
    // Slow (or odd) endpoint: stop the walk and let the caller's backoff
    // pace the retry — hammering the rest of the ring after a timeout
    // risks paying a full connect timeout per endpoint per attempt.  The
    // next walk resumes *past* the offender, so one slow endpoint that
    // keeps coming due for re-probes cannot shadow a healthy neighbor.
    Cur = (I + 1) % Eps.size();
    break;
  }
  Err = LastErr.empty() ? "every endpoint is backing off" : LastErr;
  return false;
}

bool Client::connect(const std::string &EndpointSpec, std::string &Err) {
  Spec = EndpointSpec;
  Eps.clear();
  Cur = 0;
  ShedStreak = 0;
  // Parse the comma-separated failover ring; each endpoint gets its own
  // deterministic re-probe pacer.
  size_t Pos = 0;
  while (Pos <= EndpointSpec.size()) {
    size_t Comma = EndpointSpec.find(',', Pos);
    bool Last = Comma == std::string::npos;
    if (Last)
      Comma = EndpointSpec.size();
    std::string One = EndpointSpec.substr(Pos, Comma - Pos);
    size_t B = One.find_first_not_of(" \t");
    size_t E = One.find_last_not_of(" \t");
    if (B != std::string::npos)
      One = One.substr(B, E - B + 1);
    else
      One.clear();
    if (!One.empty())
      Eps.push_back(EndpointHealth{
          One, false, 0,
          support::Backoff(Opt.BackoffBaseSeconds, Opt.BackoffCapSeconds,
                           Opt.Seed ^
                               (Eps.size() * 0x9e3779b97f4a7c15ull))});
    if (Last)
      break;
    Pos = Comma + 1;
  }
  if (Eps.empty()) {
    Err = "empty endpoint spec";
    return false;
  }
  RetryB.emplace(Opt.BackoffBaseSeconds, Opt.BackoffCapSeconds, Opt.Seed);

  // The initial dial gets the same retry discipline as everything else: a
  // reset during the hello/welcome exchange is just as transient as one
  // mid-request, and on a hostile wire it happens.  (reconnect() stays
  // single-attempt — retryLoop already paces re-dials with this backoff.)
  net::Deadline Overall = overallDeadline();
  unsigned Max = Opt.MaxAttempts ? Opt.MaxAttempts : 1;
  for (unsigned A = 0;; ++A) {
    if (dialAny(Err)) {
      RetryB->reset();
      if (Opt.PreferLeastLoaded && Eps.size() > 1)
        settleLeastLoaded();
      return true;
    }
    if (A + 1 >= Max || Overall.expired())
      return false;
    Net.Retries++;
    double Delay = RetryB->next();
    if (!Overall.infinite() && Overall.secondsLeft() <= Delay)
      return false;
    std::this_thread::sleep_for(std::chrono::duration<double>(Delay));
  }
}

void Client::settleLeastLoaded() {
  // Probe the ring in order, remembering each endpoint's instantaneous
  // load; endpoints that fail to dial or to answer are left marked by
  // dialAny/awaitFrame and simply not preferred.
  size_t Best = Cur;
  uint64_t BestLoad = UINT64_MAX;
  size_t Started = Cur;
  for (size_t Hop = 0; Hop < Eps.size(); ++Hop) {
    size_t I = (Started + Hop) % Eps.size();
    if (I != Cur || Fd < 0) {
      DialError DE;
      std::string DErr;
      if (!dialEndpoint(I, DErr, DE))
        continue;
      Cur = I;
    }
    HealthInfo H;
    std::string HErr;
    double RetryAfterSeconds = 0;
    double Wait = Opt.ConnectTimeoutSeconds > 0 ? Opt.ConnectTimeoutSeconds
                                                : 5;
    if (healthOnce(H, net::Deadline::in(Wait), HErr, RetryAfterSeconds) !=
            Outcome::Done ||
        !HErr.empty())
      continue;
    uint64_t Load = H.QueueDepth + H.ActiveJobs + (H.Draining ? 1u << 20 : 0);
    if (Load < BestLoad) {
      BestLoad = Load;
      Best = I;
    }
  }
  if (Best != Cur || Fd < 0) {
    DialError DE;
    std::string DErr;
    if (dialEndpoint(Best, DErr, DE)) {
      if (Best != Cur)
        Net.EndpointRotations++;
      Cur = Best;
    } else {
      // The winner vanished between probe and settle; fall back to the
      // normal walk.
      std::string AErr;
      dialAny(AErr);
    }
  }
}

bool Client::reconnect(std::string &Err) {
  if (Eps.empty()) {
    Err = "no endpoint to reconnect to";
    return false;
  }
  if (!dialAny(Err))
    return false;
  Net.Reconnects++;
  return true;
}

bool Client::sendRaw(const std::string &Bytes, std::string &Err) {
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  // The one client-side write path: deadline-bounded, partial-write and
  // EINTR safe, SIGPIPE-free (server/Net.h) — a stalled or vanished server
  // costs one bounded send, never a wedged caller.
  net::Deadline D = Opt.WriteTimeoutSeconds > 0
                        ? net::Deadline::in(Opt.WriteTimeoutSeconds)
                        : net::Deadline();
  net::IoStatus S = net::writeAll(Fd, Bytes.data(), Bytes.size(), D);
  if (S != net::IoStatus::Ok) {
    Err = std::string("send(): ") + net::ioStatusName(S);
    return false;
  }
  LastSendSec = nowSec();
  return true;
}

bool Client::send(const Frame &F, std::string &Err) {
  return sendRaw(encodeFrame(F), Err);
}

bool Client::recv(Frame &Out, std::string &Err) {
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  char Buf[64 * 1024];
  while (true) {
    FrameReader::Status S = Reader.next(Out, &Err);
    if (S == FrameReader::Status::Frame)
      return true;
    if (S == FrameReader::Status::Malformed)
      return false;
    ssize_t N = ::recv(Fd, Buf, sizeof Buf, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      Err = std::string("recv(): ") + std::strerror(errno);
      return false;
    }
    if (N == 0) {
      Err = "connection closed by server";
      return false;
    }
    Reader.feed(Buf, size_t(N));
  }
}

bool Client::awaitFrame(FrameView &Out, const net::Deadline &Overall,
                        std::string &Err, bool &Transient) {
  Transient = false;
  if (Fd < 0) {
    Err = "not connected";
    Transient = true;
    return false;
  }
  char Buf[64 * 1024];
  double LastRecv = nowSec();
  while (true) {
    // Drain buffered frames first; heartbeats are liveness, not answers.
    FrameReader::Status S = Reader.next(Out, &Err);
    if (S == FrameReader::Status::Frame) {
      if (Out.Type == FrameType::Heartbeat) {
        Net.HeartbeatsSeen++;
        continue;
      }
      return true;
    }
    if (S == FrameReader::Status::Malformed) {
      // Corruption on the wire (the checksum caught it): the stream is
      // unrecoverable but the request is retryable on a fresh one.
      Err = "malformed frame from server: " + Err;
      Transient = true;
      return false;
    }

    if (Overall.expired()) {
      Err = "deadline expired waiting for server";
      Net.DeadlineExpired++;
      return false;
    }
    double Tick = 0.2;
    if (!Overall.infinite() && Overall.secondsLeft() < Tick)
      Tick = Overall.secondsLeft() > 0.01 ? Overall.secondsLeft() : 0.01;

    // Heartbeat on the pacing clock regardless of inbound traffic: a
    // chatty server (its own heartbeats, streamed rows) must not suppress
    // ours, or it could never tell us apart from a vanished peer.
    if (Opt.HeartbeatSeconds > 0 &&
        nowSec() - LastSendSec >= Opt.HeartbeatSeconds) {
      std::string HbErr;
      if (send(Frame{FrameType::Heartbeat, ""}, HbErr))
        Net.HeartbeatsSent++;
      else {
        Err = "heartbeat send failed: " + HbErr;
        Transient = true;
        return false;
      }
    }

    size_t Got = 0;
    net::IoStatus IS =
        net::readSome(Fd, Buf, sizeof Buf, net::Deadline::in(Tick), Got);
    if (IS == net::IoStatus::Timeout) {
      double Now = nowSec();
      if (Opt.SilenceTimeoutSeconds > 0 &&
          Now - LastRecv > Opt.SilenceTimeoutSeconds) {
        Err = "server silent for " +
              std::to_string(Opt.SilenceTimeoutSeconds) +
              "s (half-open connection?)";
        Transient = true;
        return false;
      }
      continue;
    }
    if (IS != net::IoStatus::Ok) {
      Err = std::string("recv(): ") + net::ioStatusName(IS);
      Transient = true;
      return false;
    }
    LastRecv = nowSec();
    Reader.feed(Buf, Got);
  }
}

//===----------------------------------------------------------------------===//
// Retry driver.
//===----------------------------------------------------------------------===//

bool Client::retryLoop(
    std::string &Err,
    const std::function<Outcome(const net::Deadline &, std::string &,
                                double &)> &Attempt) {
  // One pacer shared by every helper call: a shed storm keeps its long
  // delays across calls, and a success resets the streak (below) so one
  // healthy answer restores fast retries.
  if (!RetryB)
    RetryB.emplace(Opt.BackoffBaseSeconds, Opt.BackoffCapSeconds, Opt.Seed);
  support::Backoff &B = *RetryB;
  net::Deadline Overall = overallDeadline();
  unsigned Max = Opt.MaxAttempts ? Opt.MaxAttempts : 1;
  std::string LastErr;
  for (unsigned A = 0; A < Max; ++A) {
    if (A > 0)
      Net.Retries++;
    LastErr.clear();
    double RetryAfterSeconds = 0;
    Outcome O = Outcome::Transient;
    if (connected() || reconnect(LastErr)) {
      O = Attempt(Overall, LastErr, RetryAfterSeconds);
      switch (O) {
      case Outcome::Done:
        Err = LastErr;
        if (LastErr.empty()) {
          ShedStreak = 0;
          B.reset(); // success ends the failure streak: next retry is fast
        }
        return LastErr.empty();
      case Outcome::Shed:
        Net.Sheds++;
        // Shed storm: a daemon that sheds twice in a row is saturated;
        // with a failover ring, move the next dial to the neighbor instead
        // of queueing politely behind the flood.
        if (++ShedStreak >= 2 && Eps.size() > 1) {
          ShedStreak = 0;
          close();
          Cur = (Cur + 1) % Eps.size();
          Net.EndpointRotations++;
        }
        break;
      case Outcome::Transient:
        ShedStreak = 0;
        close(); // next iteration re-dials...
        if (Eps.size() > 1) {
          // ...starting at the neighbor: a reset/reap mid-request is the
          // failover signal, and the dedup'd request id makes landing on a
          // different daemon an attach-or-reread, never a recompute.
          Cur = (Cur + 1) % Eps.size();
          Net.EndpointRotations++;
        }
        break;
      }
    }
    // No backoff after the last attempt: there is nothing left to pace.
    if (A + 1 >= Max || Overall.expired())
      break;
    double Delay =
        O == Outcome::Shed ? B.next(RetryAfterSeconds) : B.next();
    if (!Overall.infinite() && Overall.secondsLeft() <= Delay)
      break;
    std::this_thread::sleep_for(std::chrono::duration<double>(Delay));
  }
  Err = LastErr.empty() ? "request failed after retries" : LastErr;
  if (Overall.expired()) {
    Net.DeadlineExpired++;
    Err = "deadline expired: " + Err;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Helpers.
//===----------------------------------------------------------------------===//

net::Deadline Client::overallDeadline() const {
  return Opt.DeadlineMs > 0
             ? net::Deadline::in(double(Opt.DeadlineMs) / 1000.0)
             : net::Deadline();
}

Client::Outcome Client::exchange(Request &Req, const net::Deadline &Overall,
                                 Reply &Rep, std::string &Err,
                                 double &RetryAfterSeconds, FrameType Result,
                                 const std::function<bool(std::string_view)>
                                     &OnResult) {
  Req.DeadlineMs =
      Overall.infinite() ? 0 : uint64_t(Overall.secondsLeft() * 1000) + 1;
  if (!send(Frame{FrameType::Request, encodeRequest(Req)}, Err))
    return Outcome::Transient;
  FrameView F;
  bool Transient = false, Accepted = false;
  while (awaitFrame(F, Overall, Err, Transient)) {
    if (F.Type == FrameType::Error) {
      Err = "server error: " + std::string(F.Payload);
      return Outcome::Transient;
    }
    if (F.Type == FrameType::Bye) {
      // A drained server will not come back.  It owed an accepted request
      // its result before the goodbye; one it never accepted may still be
      // served by another endpoint.
      Err = "server shut down before the result arrived";
      return Accepted ? Outcome::Done : Outcome::Transient;
    }
    if (F.Type == FrameType::Done) {
      DoneInfo D;
      if (!decodeDone(F.Payload, D) || D.Id != Req.Id)
        continue;
      Rep.Done = D;
      Rep.Ok = D.Status == 0;
      return Outcome::Done;
    }
    // Everything else that matters is id-tagged: `diag` and frames for
    // other ids are skipped.
    uint64_t Id = 0;
    std::string_view Body;
    if (!decodeIdPayload(F.Payload, Id, Body) || Id != Req.Id)
      continue;
    Accepted |= F.Type == FrameType::Accepted;
    if (F.Type != Result && F.Type != FrameType::Rejected)
      continue;
    if (F.Type == Result) {
      if (OnResult(Body))
        continue;
      Err = std::string("undecodable ") + frameTypeName(F.Type) +
            " frame from server";
      return Outcome::Transient;
    }
    if (!decodeRejectBody(Body, Rep.RejectReason, Rep.RetryAfterMs)) {
      Err = "undecodable rejected frame from server";
      return Outcome::Transient;
    }
    Rep.Rejected = true;
    if (Rep.RetryAfterMs == 0)
      return Outcome::Done; // permanent: the request itself is invalid
    RetryAfterSeconds = double(Rep.RetryAfterMs) / 1000.0;
    Err = "shed: " + Rep.RejectReason;
    return Outcome::Shed;
  }
  return Transient ? Outcome::Transient : Outcome::Done;
}

Client::Outcome Client::answered(Outcome O, const Reply &Rep, bool Got,
                                 const char *What, std::string &Err) {
  if (O != Outcome::Done || !Err.empty())
    return O;
  if (Rep.Rejected)
    Err = std::string(What) + " request rejected: " + Rep.RejectReason;
  else if (!Got)
    Err = Rep.Done.Error.empty() ? std::string(What) + " failed"
                                 : Rep.Done.Error;
  return O;
}

bool Client::runTrace(const TraceRequest &R, TraceResult &Out,
                      std::string &Err) {
  Request Req;
  Req.Id = nextId(); // one id across every retry: idempotent replay
  Req.K = Request::Kind::Trace;
  Req.Trace = R;
  return retryLoop(Err, [&](const net::Deadline &Overall, std::string &E,
                            double &RetryAfterSeconds) {
    Out = TraceResult();
    return exchange(Req, Overall, Out, E, RetryAfterSeconds, FrameType::Trace,
                    [&](std::string_view Body) {
                      Out.EntryText.assign(Body);
                      return true;
                    });
  });
}

bool Client::runStudy(
    const std::string &Name, StudyResult &Out, std::string &Err,
    const std::function<void(const frontend::CaseResult &)> &OnRow) {
  Request Req;
  Req.Id = nextId();
  Req.K = Request::Kind::Study;
  Req.Study = Name;
  return retryLoop(Err, [&](const net::Deadline &Overall, std::string &E,
                            double &RetryAfterSeconds) {
    Out = StudyResult(); // a retry restarts the row stream from scratch
    return exchange(Req, Overall, Out, E, RetryAfterSeconds, FrameType::Row,
                    [&](std::string_view Body) {
                      frontend::CaseResult R;
                      if (!frontend::decodeCaseResult(Body, R))
                        return false;
                      Out.Rows.push_back(R);
                      if (OnRow)
                        OnRow(R);
                      return true;
                    });
  });
}

bool Client::ping(std::string &Err) {
  if (!send(Frame{FrameType::Ping, ""}, Err))
    return false;
  FrameView F;
  bool Transient = false;
  while (awaitFrame(F, overallDeadline(), Err, Transient)) {
    if (F.Type == FrameType::Pong)
      return true;
    if (F.Type == FrameType::Error || F.Type == FrameType::Bye) {
      Err = "server error: " + std::string(F.Payload);
      return false;
    }
  }
  return false;
}

bool Client::getStats(std::string &Out, std::string &Err) {
  Request Req;
  Req.Id = nextId();
  Req.K = Request::Kind::Stats;
  return retryLoop(Err, [&](const net::Deadline &Overall, std::string &E,
                            double &RetryAfterSeconds) {
    Reply Rep;
    bool Got = false;
    Outcome O = exchange(Req, Overall, Rep, E, RetryAfterSeconds,
                         FrameType::Stats, [&](std::string_view Body) {
                           Out.assign(Body);
                           return Got = true;
                         });
    return answered(O, Rep, Got, "stats", E);
  });
}

Client::Outcome Client::healthOnce(HealthInfo &Out,
                                   const net::Deadline &Overall,
                                   std::string &Err,
                                   double &RetryAfterSeconds) {
  Request Req;
  Req.Id = nextId();
  Req.K = Request::Kind::Health;
  Reply Rep;
  bool Got = false;
  Outcome O = exchange(Req, Overall, Rep, Err, RetryAfterSeconds,
                       FrameType::Health, [&](std::string_view Body) {
                         return Got = decodeHealth(Body, Out);
                       });
  return answered(O, Rep, Got, "health", Err);
}

bool Client::health(HealthInfo &Out, std::string &Err) {
  return retryLoop(Err, [&](const net::Deadline &Overall, std::string &E,
                            double &RetryAfterSeconds) {
    return healthOnce(Out, Overall, E, RetryAfterSeconds);
  });
}

bool Client::reloadServer(std::string &Err) {
  Request Req;
  Req.Id = nextId();
  Req.K = Request::Kind::Reload;
  return retryLoop(Err, [&](const net::Deadline &Overall, std::string &E,
                            double &RetryAfterSeconds) {
    Reply Rep;
    Outcome O = exchange(Req, Overall, Rep, E, RetryAfterSeconds);
    return answered(O, Rep, Rep.Ok, "reload", E);
  });
}

bool Client::shutdownServer(std::string &Err) {
  if (!send(Frame{FrameType::Shutdown, ""}, Err))
    return false;
  Frame F;
  while (recv(F, Err)) {
    if (F.Type == FrameType::Accepted || F.Type == FrameType::Bye)
      return true;
    if (F.Type == FrameType::Heartbeat)
      continue;
    if (F.Type == FrameType::Error) {
      Err = "server error: " + F.Payload;
      return false;
    }
  }
  // EOF after a shutdown request is success too: the server drained and
  // closed before the ack was read.
  return true;
}
