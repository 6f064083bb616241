//===- tools/netchaos.cpp - Fault-injecting proxy for islarisd -----------------===//
//
// Standalone wrapper over server::ChaosProxy: sit between islarisd clients
// and a daemon and mangle the byte stream deterministically.
//
//   netchaos --listen ENDPOINT --upstream ENDPOINT [--seed N]
//            [--delay P] [--delay-max-ms MS] [--split P] [--corrupt P]
//            [--drop P] [--reset P]
//
// Flags default from the environment (ISLARIS_FAULT_SEED, ISLARIS_NETCHAOS
// — the FaultInjector convention) and override it; a malformed value in
// either exits 2.  Prints
// "netchaos: listening on <endpoint> (seed N)" once live, echoing the seed
// so a failing chaos run is replayable from its log, then runs until
// SIGINT/SIGTERM, printing injection counters on the way out.
//
// The CI netchaos job kills this process mid-stream on purpose: everything
// downstream must see resets, not hangs.
//
//===----------------------------------------------------------------------===//

#include "server/ChaosProxy.h"

#include "Flags.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

using namespace islaris;

namespace {

std::atomic<bool> Stop{false};

void onSignal(int) { Stop.store(true, std::memory_order_relaxed); }

int usage() {
  std::fprintf(
      stderr,
      "usage: netchaos --listen ENDPOINT --upstream ENDPOINT [--seed N]\n"
      "                [--delay P] [--delay-max-ms MS] [--split P]\n"
      "                [--corrupt P] [--drop P] [--reset P]\n"
      "  ENDPOINT: unix socket path or TCP host:port (port 0 = ephemeral)\n"
      "  defaults come from ISLARIS_FAULT_SEED / ISLARIS_NETCHAOS\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  server::ChaosConfig Cfg;
  std::string Err;
  if (!server::ChaosConfig::fromEnv(Cfg, Err)) {
    std::fprintf(stderr, "netchaos: %s\n", Err.c_str());
    return 2;
  }
  std::string Listen, Upstream;

  tools::Flags F("netchaos", argc, argv);
  while (F.more()) {
    std::string_view A = F.next();
    if (A == "--listen")
      Listen = F.str();
    else if (A == "--upstream")
      Upstream = F.str();
    else if (A == "--seed")
      Cfg.Seed = F.integer();
    else if (A == "--delay")
      Cfg.DelayProb = F.real(1);
    else if (A == "--delay-max-ms")
      Cfg.DelayMaxMs = F.real();
    else if (A == "--split")
      Cfg.SplitProb = F.real(1);
    else if (A == "--corrupt")
      Cfg.CorruptProb = F.real(1);
    else if (A == "--drop")
      Cfg.DropProb = F.real(1);
    else if (A == "--reset")
      Cfg.ResetProb = F.real(1);
    else if (A == "--help" || A == "-h")
      return usage();
    else {
      std::fprintf(stderr, "netchaos: unknown flag %.*s\n", int(A.size()),
                   A.data());
      return usage();
    }
  }
  if (Listen.empty() || Upstream.empty())
    return usage();

  server::ChaosProxy P(Cfg);
  if (!P.start(Listen, Upstream, Err)) {
    std::fprintf(stderr, "netchaos: %s\n", Err.c_str());
    return 2;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("netchaos: listening on %s (seed %llu)\n",
              P.boundEndpoint().str().c_str(),
              (unsigned long long)Cfg.Seed);
  std::fflush(stdout);

  while (!Stop.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  P.stop();
  server::ChaosStats St = P.stats();
  std::printf("netchaos: done (%llu conns, %llu bytes, delays %llu, "
              "splits %llu, corruptions %llu, drops %llu, resets %llu)\n",
              (unsigned long long)St.Connections,
              (unsigned long long)St.BytesForwarded,
              (unsigned long long)St.Delays, (unsigned long long)St.Splits,
              (unsigned long long)St.Corruptions,
              (unsigned long long)St.Drops, (unsigned long long)St.Resets);
  return 0;
}
