//===- server/ChaosProxy.cpp - Fault-injecting stream proxy --------------------===//

#include "server/ChaosProxy.h"

#include "server/Net.h"
#include "support/FaultInjector.h"
#include "support/Parse.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace islaris::server;

//===----------------------------------------------------------------------===//
// Config from the environment.
//===----------------------------------------------------------------------===//

bool ChaosConfig::fromEnv(ChaosConfig &C, std::string &Err) {
  C = ChaosConfig();
  if (!support::faultSeedFromEnv(C.Seed, Err))
    return false;
  const char *Spec = std::getenv("ISLARIS_NETCHAOS");
  if (!Spec)
    return true;
  auto Set = [&C](std::string_view Key, std::string_view Val) {
    double *Field = Key == "delay"          ? &C.DelayProb
                    : Key == "delay-max-ms" ? &C.DelayMaxMs
                    : Key == "split"        ? &C.SplitProb
                    : Key == "corrupt"      ? &C.CorruptProb
                    : Key == "drop"         ? &C.DropProb
                    : Key == "reset"        ? &C.ResetProb
                                            : nullptr;
    double V = 0;
    if (!Field || !support::parseDouble(Val, V) || V < 0 ||
        (Field != &C.DelayMaxMs && V > 1))
      return false;
    *Field = V;
    return true;
  };
  return support::forEachKeyValue(Spec, "ISLARIS_NETCHAOS", Set, Err);
}

//===----------------------------------------------------------------------===//
// Impl.
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64, the FaultInjector-family generator.
uint64_t mix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double unit(uint64_t &State) {
  return double(mix64(State) >> 11) * (1.0 / 9007199254740992.0);
}

/// Arrange for close() to send RST instead of FIN where the transport
/// supports it, so peers exercise ECONNRESET, not just clean EOF.
void hardClose(int Fd) {
  if (Fd < 0)
    return;
  linger Lg{1, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &Lg, sizeof Lg);
  ::close(Fd);
}

} // namespace

struct ChaosProxy::Impl {
  explicit Impl(ChaosConfig C) : Cfg(C) {}

  ChaosConfig Cfg;
  Endpoint Upstream;
  Listener Lsn;
  std::atomic<bool> Stopping{false};
  std::thread AcceptTh;
  uint64_t NextConn = 0;

  mutable std::mutex StatsMu;
  ChaosStats St;

  /// Live connection fd pairs, so stop() can reset them mid-stream.
  std::mutex ConnMu;
  struct Pair {
    int CFd = -1, UFd = -1;
    std::thread Th;
    std::atomic<bool> Done{false};
  };
  std::vector<std::unique_ptr<Pair>> Pairs;

  void bump(uint64_t ChaosStats::*F, uint64_t N = 1) {
    std::lock_guard<std::mutex> SL(StatsMu);
    St.*F += N;
  }

  void acceptLoop() {
    while (!Stopping.load(std::memory_order_relaxed)) {
      pollfd P{Lsn.fd(), POLLIN, 0};
      int R = ::poll(&P, 1, 100);
      reapPairs();
      if (R <= 0)
        continue;
      int CFd = Lsn.acceptOne();
      if (CFd < 0)
        continue;
      std::string Err;
      int UFd = connectEndpoint(Upstream, 5.0, Err);
      if (UFd < 0) {
        // Upstream down: the client sees an immediate reset, the honest
        // translation of "there is no server behind this proxy".
        hardClose(CFd);
        continue;
      }
      bump(&ChaosStats::Connections);
      auto PR = std::make_unique<Pair>();
      PR->CFd = CFd;
      PR->UFd = UFd;
      Pair *Raw = PR.get();
      uint64_t ConnIx = NextConn++;
      {
        std::lock_guard<std::mutex> CL(ConnMu);
        Pairs.push_back(std::move(PR));
      }
      Raw->Th = std::thread([this, Raw, ConnIx] {
        pump(*Raw, Cfg.Seed * 0x100000001b3ull + ConnIx + 1);
        Raw->Done.store(true, std::memory_order_release);
      });
    }
  }

  void reapPairs() {
    std::vector<std::unique_ptr<Pair>> Dead;
    {
      std::lock_guard<std::mutex> CL(ConnMu);
      for (auto It = Pairs.begin(); It != Pairs.end();) {
        if ((*It)->Done.load(std::memory_order_acquire)) {
          Dead.push_back(std::move(*It));
          It = Pairs.erase(It);
        } else {
          ++It;
        }
      }
    }
    for (auto &P : Dead)
      if (P->Th.joinable())
        P->Th.join();
  }

  /// Forward one received chunk through the fault lottery.  Returns false
  /// when the connection pair should die.
  bool forwardChunk(int Dst, char *Buf, size_t N, uint64_t &Rng) {
    if (Cfg.ResetProb > 0 && unit(Rng) < Cfg.ResetProb) {
      bump(&ChaosStats::Resets);
      return false;
    }
    if (Cfg.DropProb > 0 && unit(Rng) < Cfg.DropProb) {
      // Mid-frame loss: a strict prefix goes through, then the reset.
      size_t Keep = N > 1 ? size_t(mix64(Rng) % N) : 0;
      if (Keep > 0)
        net::writeAll(Dst, Buf, Keep, net::Deadline::in(10));
      bump(&ChaosStats::Drops);
      return false;
    }
    if (Cfg.CorruptProb > 0 && unit(Rng) < Cfg.CorruptProb) {
      // Flip one byte by a nonzero delta so the chunk provably changed;
      // the frame checksum downstream must catch it.
      size_t At = size_t(mix64(Rng) % N);
      Buf[At] = char(Buf[At] ^ (1 + mix64(Rng) % 255));
      bump(&ChaosStats::Corruptions);
    }
    if (Cfg.DelayProb > 0 && unit(Rng) < Cfg.DelayProb) {
      bump(&ChaosStats::Delays);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          unit(Rng) * Cfg.DelayMaxMs));
    }
    if (Cfg.SplitProb > 0 && unit(Rng) < Cfg.SplitProb) {
      // Trickle: tiny pieces with a breath between, the worst legal TCP
      // delivery a reader must already tolerate.  Small chunks go byte-ish
      // at a time (the adversarial boundary coverage); big ones bound the
      // piece count so one split of a multi-KB result frame costs
      // milliseconds, not seconds of gap sleeps.
      bump(&ChaosStats::Splits);
      size_t Floor = N / 64;
      size_t Off = 0;
      while (Off < N) {
        size_t Piece = 1 + size_t(mix64(Rng) % 4);
        if (Piece < Floor)
          Piece = Floor;
        if (Piece > N - Off)
          Piece = N - Off;
        if (net::writeAll(Dst, Buf + Off, Piece, net::Deadline::in(10)) !=
            net::IoStatus::Ok)
          return false;
        Off += Piece;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      bump(&ChaosStats::BytesForwarded, N);
      return true;
    }
    if (net::writeAll(Dst, Buf, N, net::Deadline::in(10)) !=
        net::IoStatus::Ok)
      return false;
    bump(&ChaosStats::BytesForwarded, N);
    return true;
  }

  void pump(Pair &P, uint64_t Seed) {
    uint64_t Rng = Seed ? Seed : 1;
    char Buf[16 * 1024];
    bool Alive = true;
    while (Alive && !Stopping.load(std::memory_order_relaxed)) {
      pollfd PF[2] = {{P.CFd, POLLIN, 0}, {P.UFd, POLLIN, 0}};
      int R = ::poll(PF, 2, 100);
      if (R < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      if (R == 0)
        continue;
      for (int I = 0; I < 2 && Alive; ++I) {
        if (!(PF[I].revents & (POLLIN | POLLERR | POLLHUP)))
          continue;
        ssize_t N = ::recv(PF[I].fd, Buf, sizeof Buf, 0);
        if (N <= 0) {
          Alive = false;
          break;
        }
        Alive = forwardChunk(I == 0 ? P.UFd : P.CFd, Buf, size_t(N), Rng);
      }
    }
    // Both directions die together: half-proxied connections are a fault
    // mode the *server* simulates (half-open reap), not this proxy.
    // Closing under ConnMu keeps stop()'s shutdown sweep off a recycled
    // fd number.
    std::lock_guard<std::mutex> CL(ConnMu);
    hardClose(P.CFd);
    hardClose(P.UFd);
    P.CFd = P.UFd = -1;
  }
};

ChaosProxy::ChaosProxy(ChaosConfig C) : I(std::make_unique<Impl>(C)) {}

ChaosProxy::~ChaosProxy() { stop(); }

bool ChaosProxy::start(const std::string &ListenSpec,
                       const std::string &UpstreamSpec, std::string &Err) {
  if (!parseEndpoint(UpstreamSpec, I->Upstream, Err))
    return false;
  Endpoint L;
  if (!parseEndpoint(ListenSpec, L, Err))
    return false;
  if (!I->Lsn.listenOn(L, Err))
    return false;
  I->AcceptTh = std::thread([this] { I->acceptLoop(); });
  return true;
}

void ChaosProxy::stop() {
  bool Expected = false;
  if (!I->Stopping.compare_exchange_strong(Expected, true)) {
    if (I->AcceptTh.joinable())
      I->AcceptTh.join();
    return;
  }
  if (I->AcceptTh.joinable())
    I->AcceptTh.join();
  I->Lsn.close();
  // Wake every pump out of poll by shutting the sockets down under it,
  // then join; the pumps do the closing themselves.
  {
    std::lock_guard<std::mutex> CL(I->ConnMu);
    for (auto &P : I->Pairs) {
      if (P->CFd >= 0)
        ::shutdown(P->CFd, SHUT_RDWR);
      if (P->UFd >= 0)
        ::shutdown(P->UFd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::unique_ptr<Impl::Pair> P;
    {
      std::lock_guard<std::mutex> CL(I->ConnMu);
      if (I->Pairs.empty())
        break;
      P = std::move(I->Pairs.back());
      I->Pairs.pop_back();
    }
    if (P->Th.joinable())
      P->Th.join();
  }
}

Endpoint ChaosProxy::boundEndpoint() const { return I->Lsn.local(); }

ChaosStats ChaosProxy::stats() const {
  std::lock_guard<std::mutex> SL(I->StatsMu);
  return I->St;
}
