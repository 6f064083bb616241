//===- server/ChaosProxy.h - Fault-injecting stream proxy -------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hostile network in a box: a stream proxy that sits between an
/// islarisd client and the server and injects, from a seeded deterministic
/// lottery, the failure modes a real network serves up —
///
///   delay      a forwarded chunk sits in the proxy for a few milliseconds
///   split      a chunk is trickled through in tiny partial writes
///              (exercises every reader's handling of arbitrary chunking)
///   corrupt    one byte of a chunk is flipped (the frame checksum must
///              catch it and attribute it, never desynchronize)
///   drop       only a prefix of a chunk is forwarded, then the connection
///              is reset — a mid-frame loss
///   reset      the connection is torn down immediately (RST where the
///              transport supports it)
///
/// The contract the chaos suite enforces: every injected fault ends as a
/// precisely attributed Diag or a successful retry — never a hang, a
/// crash, or a wrong verdict.  Retry safety is an admission-layer
/// property (trace requests are canonicalized and deduped by cache key),
/// so the proxy needs no protocol knowledge at all; it mangles bytes.
///
/// Decisions come from a splitmix64 stream per connection, seeded from
/// (config seed, connection index), the same philosophy as
/// support::FaultInjector: a run with a fixed seed and a deterministic
/// connection order replays exactly.  Seeding follows the FaultInjector
/// env convention (ISLARIS_FAULT_SEED), with the fault mix in
/// ISLARIS_NETCHAOS ("delay=0.1,split=0.2,corrupt=0.01,...").
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SERVER_CHAOSPROXY_H
#define ISLARIS_SERVER_CHAOSPROXY_H

#include "server/Transport.h"

#include <cstdint>
#include <memory>
#include <string>

namespace islaris::server {

struct ChaosConfig {
  uint64_t Seed = 1;
  /// Per-chunk probabilities in [0, 1].  At most one destructive fault
  /// (reset/drop/corrupt) fires per chunk; delay and split compose with
  /// anything.
  double ResetProb = 0;
  double DropProb = 0;
  double CorruptProb = 0;
  double SplitProb = 0;
  double DelayProb = 0;
  /// Injected latency is uniform in [0, DelayMaxMs].
  double DelayMaxMs = 20;

  /// Builds a config from the environment: ISLARIS_FAULT_SEED for the
  /// seed, ISLARIS_NETCHAOS for the mix, e.g.
  ///   ISLARIS_NETCHAOS="delay=0.2,split=0.3,corrupt=0.02,drop=0.02,reset=0.01"
  /// Unset entries keep their defaults; an unknown key or a bad number
  /// returns false with \p Err naming it.
  static bool fromEnv(ChaosConfig &Out, std::string &Err);
};

/// Monotonic injection counters, for the "faults actually fired" half of
/// chaos-test assertions.
struct ChaosStats {
  uint64_t Connections = 0;
  uint64_t BytesForwarded = 0;
  uint64_t Delays = 0;
  uint64_t Splits = 0;
  uint64_t Corruptions = 0;
  uint64_t Drops = 0;
  uint64_t Resets = 0;
};

/// The proxy: listens on one endpoint, forwards each accepted connection
/// to the upstream endpoint, mangling per the config.  start() spawns the
/// accept thread and returns; stop() tears down every live connection
/// (clients see resets, exactly like a mid-stream proxy kill).
class ChaosProxy {
public:
  explicit ChaosProxy(ChaosConfig C);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy &) = delete;
  ChaosProxy &operator=(const ChaosProxy &) = delete;

  /// \p ListenSpec / \p UpstreamSpec in the Transport endpoint grammar
  /// (TCP port 0 binds ephemerally; read it back from boundEndpoint()).
  bool start(const std::string &ListenSpec, const std::string &UpstreamSpec,
             std::string &Err);

  /// Tears down the listener and every live connection, joins threads.
  /// Idempotent.
  void stop();

  Endpoint boundEndpoint() const;
  ChaosStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace islaris::server

#endif // ISLARIS_SERVER_CHAOSPROXY_H
