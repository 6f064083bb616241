//===- tools/islaris-cli.cpp - islarisd command-line client --------------------===//
//
// Thin client over server::Client:
//
//   islaris-cli --socket ENDPOINT ping
//   islaris-cli --socket ENDPOINT stats
//   islaris-cli --socket ENDPOINT health
//   islaris-cli --socket ENDPOINT reload
//   islaris-cli --socket ENDPOINT study NAME|suite
//   islaris-cli --socket ENDPOINT trace ARCH OPCODE-HEX [--sym-mask HEX]
//               [--assume BASE[.FIELD]=WIDTH:VALUE]...
//   islaris-cli --socket ENDPOINT shutdown
//
// ENDPOINT is a Unix socket path, a TCP "host:port", or a comma-separated
// failover list of either ("a.sock,b.sock,host:port"): the client dials
// the first reachable endpoint (with --least-loaded, the least-loaded one)
// and rotates through the ring on resets, reaps, refusals, and shed
// storms.  Retry knobs:
// --deadline-ms N bounds each command end to end (and travels to the
// server), --retries N caps attempts, --retry-seed N fixes the backoff
// jitter stream so chaos runs replay, --quiet-retries hides retry noise.
// Sheds and transient transport failures are retried transparently; the
// exit code reflects only the final outcome.
//
// OPCODE-HEX and --sym-mask are bare hex; a malformed value exits 2.
//
// Exit codes follow the suite convention: 0 verified/ok, 1 proof failure,
// 2 infrastructure error (connection failure, rejection, malformed reply).
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include "Flags.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace islaris;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: islaris-cli --socket ENDPOINT[,ENDPOINT...] [--deadline-ms N]\n"
      "                   [--retries N] [--retry-seed N] [--least-loaded]\n"
      "                   COMMAND\n"
      "  ENDPOINT: unix socket path or TCP host:port; a comma list fails\n"
      "            over between daemons sharing a store\n"
      "commands:\n"
      "  ping                          round-trip liveness check\n"
      "  stats                         print the server's stats JSON\n"
      "  health                        print the readiness snapshot\n"
      "  reload                        hot-reload the server's ISA models\n"
      "  study NAME|suite              run one case study or all nine\n"
      "  trace ARCH OPCODE-HEX         symbolically execute one opcode\n"
      "    [--sym-mask HEX]            symbolic opcode bits\n"
      "    [--assume B[.F]=W:V]...     concrete register assumption\n"
      "  shutdown                      drain and stop the server\n");
  return 2;
}

/// "BASE[.FIELD]=WIDTH:VALUE": width decimal, value decimal or 0x-hex.
bool parseAssume(std::string_view S, server::TraceRequest::Assume &Out) {
  size_t Eq = S.find('=');
  size_t Colon = S.find(':', Eq);
  if (Eq == std::string_view::npos || Colon == std::string_view::npos)
    return false;
  std::string_view Reg = S.substr(0, Eq);
  size_t Dot = Reg.find('.');
  Out.Base = Reg.substr(0, Dot);
  Out.Field = Dot == std::string_view::npos ? "" : Reg.substr(Dot + 1);
  return !Out.Base.empty() &&
         support::parseUnsigned(S.substr(Eq + 1, Colon - Eq - 1), UINT32_MAX,
                                Out.Width) &&
         Out.Width > 0 &&
         support::parseInteger(S.substr(Colon + 1), UINT64_MAX, Out.Value);
}

} // namespace

int main(int argc, char **argv) {
  std::string Socket;
  server::ClientOptions Opt;
  Opt.Name = "islaris-cli";
  std::vector<std::string> Args;
  server::TraceRequest T;
  tools::Flags F("islaris-cli", argc, argv);
  while (F.more()) {
    std::string_view A = F.next();
    if (A == "--socket")
      Socket = F.str();
    else if (A == "--deadline-ms")
      Opt.DeadlineMs = F.count();
    else if (A == "--retries")
      Opt.MaxAttempts = unsigned(F.count(UINT32_MAX));
    else if (A == "--retry-seed")
      Opt.Seed = F.integer();
    else if (A == "--least-loaded")
      Opt.PreferLeastLoaded = true;
    else if (A == "--sym-mask")
      T.SymMask = uint32_t(F.hex(UINT32_MAX));
    else if (A == "--assume") {
      server::TraceRequest::Assume As;
      const char *V = F.str();
      if (!parseAssume(V, As))
        F.bad(V);
      T.Assumes.push_back(As);
    } else
      Args.emplace_back(A);
  }
  if (Socket.empty() || Args.empty())
    return usage();
  const std::string &Cmd = Args[0];
  if (Cmd == "trace") {
    uint64_t Opcode = 0;
    if (Args.size() != 3)
      return usage();
    if (!support::parseHex(Args[2], UINT32_MAX, Opcode)) {
      std::fprintf(stderr, "islaris-cli: OPCODE-HEX: bad value '%s'\n",
                   Args[2].c_str());
      return 2;
    }
    T.Arch = Args[1];
    T.Opcode = uint32_t(Opcode);
  }

  server::Client C(Opt);
  std::string Err;
  if (!C.connect(Socket, Err)) {
    std::fprintf(stderr, "islaris-cli: %s\n", Err.c_str());
    return 2;
  }

  if (Cmd == "ping") {
    if (!C.ping(Err)) {
      std::fprintf(stderr, "islaris-cli: ping failed: %s\n", Err.c_str());
      return 2;
    }
    std::printf("pong\n");
    return 0;
  }

  if (Cmd == "stats") {
    std::string Json;
    if (!C.getStats(Json, Err)) {
      std::fprintf(stderr, "islaris-cli: stats failed: %s\n", Err.c_str());
      return 2;
    }
    std::printf("%s\n", Json.c_str());
    return 0;
  }

  if (Cmd == "health") {
    server::HealthInfo H;
    if (!C.health(H, Err)) {
      std::fprintf(stderr, "islaris-cli: health failed: %s\n", Err.c_str());
      return 2;
    }
    std::printf("{\"endpoint\":\"%s\",\"protocol\":%llu,\"pid\":%llu,"
                "\"uptime_seconds\":%.3f,\"queue_depth\":%llu,"
                "\"active_jobs\":%llu,\"draining\":%llu,"
                "\"model_generation\":%llu,\"model_fp\":\"%s\","
                "\"degraded\":%llu,\"publish_failures\":%llu,"
                "\"degraded_seconds\":%.3f}\n",
                C.activeEndpoint().c_str(), (unsigned long long)H.Version,
                (unsigned long long)H.Pid, H.UptimeSeconds,
                (unsigned long long)H.QueueDepth,
                (unsigned long long)H.ActiveJobs,
                (unsigned long long)H.Draining,
                (unsigned long long)H.Generation, H.ModelFpHex.c_str(),
                (unsigned long long)H.DegradedFlags,
                (unsigned long long)H.PublishFailures, H.DegradedSeconds);
    return 0;
  }

  if (Cmd == "reload") {
    if (!C.reloadServer(Err)) {
      std::fprintf(stderr, "islaris-cli: reload failed: %s\n", Err.c_str());
      return 2;
    }
    std::printf("islaris-cli: models reloaded on %s\n",
                C.activeEndpoint().c_str());
    return 0;
  }

  if (Cmd == "shutdown") {
    if (!C.shutdownServer(Err)) {
      std::fprintf(stderr, "islaris-cli: shutdown failed: %s\n", Err.c_str());
      return 2;
    }
    std::printf("islaris-cli: server draining\n");
    return 0;
  }

  if (Cmd == "study") {
    if (Args.size() != 2)
      return usage();
    server::Client::StudyResult R;
    bool Sent = C.runStudy(Args[1], R, Err,
                           [](const frontend::CaseResult &Row) {
                             std::printf("%-14s %-8s %s%s%s\n",
                                         Row.Name.c_str(), Row.Isa.c_str(),
                                         Row.Ok ? "ok" : "FAILED",
                                         Row.Ok ? "" : ": ",
                                         Row.Ok ? "" : Row.Error.c_str());
                             std::fflush(stdout);
                           });
    if (!Sent) {
      std::fprintf(stderr, "islaris-cli: study failed: %s\n", Err.c_str());
      return 2;
    }
    if (R.Rejected) {
      std::fprintf(stderr, "islaris-cli: rejected: %s\n",
                   R.RejectReason.c_str());
      return 2;
    }
    server::ClientNetStats NS = C.netStats();
    std::printf("islaris-cli: %zu row(s), status %u, %.3fs server time\n",
                R.Rows.size(), R.Done.Status, R.Done.Seconds);
    if (NS.Retries || NS.Sheds)
      std::fprintf(stderr,
                   "islaris-cli: net retries=%llu sheds=%llu "
                   "reconnects=%llu\n",
                   (unsigned long long)NS.Retries,
                   (unsigned long long)NS.Sheds,
                   (unsigned long long)NS.Reconnects);
    return int(R.Done.Status);
  }

  if (Cmd == "trace") {
    server::Client::TraceResult R;
    if (!C.runTrace(T, R, Err)) {
      std::fprintf(stderr, "islaris-cli: trace failed: %s\n", Err.c_str());
      return 2;
    }
    if (R.Rejected) {
      std::fprintf(stderr, "islaris-cli: rejected: %s\n",
                   R.RejectReason.c_str());
      return 2;
    }
    if (!R.Ok) {
      std::fprintf(stderr, "islaris-cli: %s (status %u)\n",
                   R.Done.Error.c_str(), R.Done.Status);
      return int(R.Done.Status ? R.Done.Status : 2);
    }
    std::printf("%s", R.EntryText.c_str());
    server::ClientNetStats NS = C.netStats();
    std::fprintf(stderr,
                 "islaris-cli: %s result in %.3fs (attempts %llu, "
                 "net retries %llu, sheds %llu)\n",
                 R.Done.Source.c_str(), R.Done.Seconds,
                 (unsigned long long)R.Done.Attempts,
                 (unsigned long long)NS.Retries,
                 (unsigned long long)NS.Sheds);
    return 0;
  }

  std::fprintf(stderr, "islaris-cli: unknown command %s\n", Cmd.c_str());
  return usage();
}
