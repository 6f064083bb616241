//===- server/Transport.cpp - Listener/endpoint abstraction --------------------===//

#include "server/Transport.h"

#include "server/Net.h"
#include "support/Parse.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace islaris::server;

std::string Endpoint::str() const {
  if (K == Kind::Unix)
    return Path;
  return Host + ":" + std::to_string(Port);
}

bool islaris::server::parseEndpoint(const std::string &Spec, Endpoint &Out,
                                    std::string &Err) {
  Out = Endpoint();
  if (Spec.empty()) {
    Err = "empty endpoint";
    return false;
  }
  // Paths are unambiguous; only a "host:port" shape with a numeric port is
  // TCP.  (A Unix path containing ':' still parses as a path unless its
  // tail is all digits, which no sane socket path has.)
  size_t Colon = Spec.rfind(':');
  if (Spec[0] != '/' && Spec[0] != '.' && Colon != std::string::npos &&
      Colon + 1 < Spec.size()) {
    std::string_view PortStr = std::string_view(Spec).substr(Colon + 1);
    if (PortStr.find_first_not_of("0123456789") == std::string_view::npos) {
      uint64_t P = 0;
      if (!support::parseUnsigned(PortStr, 65535, P)) {
        Err = "port out of range: " + Spec;
        return false;
      }
      Out.K = Endpoint::Kind::Tcp;
      Out.Host = Spec.substr(0, Colon);
      if (Out.Host.empty())
        Out.Host = "127.0.0.1";
      Out.Port = uint16_t(P);
      return true;
    }
  }
  Out.K = Endpoint::Kind::Unix;
  Out.Path = Spec;
  return true;
}

//===----------------------------------------------------------------------===//
// Unix-socket liveness probe.
//===----------------------------------------------------------------------===//

bool islaris::server::unixSocketAlive(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0 || !S_ISSOCK(St.st_mode))
    return false; // missing or not a socket: nothing live to protect
  sockaddr_un Addr{};
  if (Path.size() >= sizeof Addr.sun_path)
    return false;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  bool Alive =
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) == 0;
  ::close(Fd);
  return Alive;
}

//===----------------------------------------------------------------------===//
// Listener.
//===----------------------------------------------------------------------===//

Listener::~Listener() { close(); }

void Listener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (OwnsUnixPath && Local.K == Endpoint::Kind::Unix) {
    ::unlink(Local.Path.c_str());
    OwnsUnixPath = false;
  }
}

static bool listenUnix(const Endpoint &E, int &OutFd, std::string &Err) {
  sockaddr_un Addr{};
  if (E.Path.size() >= sizeof Addr.sun_path) {
    Err = "socket path too long for sockaddr_un (" +
          std::to_string(E.Path.size()) + " bytes): " + E.Path;
    return false;
  }
  // Probe before reclaiming: an answering listener means another daemon
  // owns this path right now, and stealing it would orphan that daemon's
  // socket while its clients still hold the address.
  if (unixSocketAlive(E.Path)) {
    Err = "socket " + E.Path +
          " already has a live daemon (refusing to steal it)";
    return false;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  ::unlink(E.Path.c_str()); // stale socket from a dead daemon (probed above)
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, E.Path.c_str(), E.Path.size() + 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0) {
    Err = "bind(" + E.Path + "): " + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (::listen(Fd, 64) < 0) {
    Err = std::string("listen(): ") + std::strerror(errno);
    ::close(Fd);
    ::unlink(E.Path.c_str());
    return false;
  }
  OutFd = Fd;
  return true;
}

static bool listenTcp(const Endpoint &E, int &OutFd, uint16_t &BoundPort,
                      std::string &Err) {
  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_PASSIVE;
  addrinfo *Res = nullptr;
  std::string PortStr = std::to_string(E.Port);
  int GA = ::getaddrinfo(E.Host.c_str(), PortStr.c_str(), &Hints, &Res);
  if (GA != 0) {
    Err = "getaddrinfo(" + E.Host + "): " + ::gai_strerror(GA);
    return false;
  }
  int Fd = -1;
  for (addrinfo *A = Res; A; A = A->ai_next) {
    Fd = ::socket(A->ai_family, A->ai_socktype, A->ai_protocol);
    if (Fd < 0)
      continue;
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
    if (::bind(Fd, A->ai_addr, A->ai_addrlen) == 0 && ::listen(Fd, 64) == 0)
      break;
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  if (Fd < 0) {
    Err = "bind(" + E.str() + "): " + std::strerror(errno);
    return false;
  }
  sockaddr_storage SS{};
  socklen_t SL = sizeof SS;
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&SS), &SL) == 0) {
    if (SS.ss_family == AF_INET)
      BoundPort = ntohs(reinterpret_cast<sockaddr_in *>(&SS)->sin_port);
    else if (SS.ss_family == AF_INET6)
      BoundPort = ntohs(reinterpret_cast<sockaddr_in6 *>(&SS)->sin6_port);
  }
  OutFd = Fd;
  return true;
}

bool Listener::listenOn(const Endpoint &E, std::string &Err) {
  close();
  Local = E;
  if (E.K == Endpoint::Kind::Unix) {
    if (!listenUnix(E, Fd, Err))
      return false;
    OwnsUnixPath = true;
    return true;
  }
  uint16_t Port = E.Port;
  if (!listenTcp(E, Fd, Port, Err))
    return false;
  Local.Port = Port;
  return true;
}

int Listener::acceptOne() {
  if (Fd < 0)
    return -1;
  int C = ::accept(Fd, nullptr, nullptr);
  if (C < 0)
    return -1;
  if (Local.K == Endpoint::Kind::Tcp) {
    int One = 1;
    ::setsockopt(C, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Connect.
//===----------------------------------------------------------------------===//

/// Maps a failed connect(2)'s errno onto the caller-facing taxonomy.
/// ECONNREFUSED and ENOENT (missing unix socket path) both mean "nobody is
/// home" — the stale-socket shape unixSocketAlive reclaims.  EAGAIN on a
/// unix stream socket means the listener's accept backlog is full: alive
/// but saturated, which for pacing purposes is a timeout, not a refusal.
static DialError classifyDialErrno(int E) {
  switch (E) {
  case ECONNREFUSED:
  case ENOENT:
    return DialError::Refused;
  case EAGAIN:
  case ETIMEDOUT:
    return DialError::Timeout;
  default:
    return DialError::Other;
  }
}

/// Connect with a deadline: flip nonblocking, connect, poll for
/// writability, read SO_ERROR, flip back.  The OS default TCP connect
/// timeout is minutes — far past any request deadline we would carry.
static bool connectTimed(int Fd, const sockaddr *Addr, socklen_t Len,
                         double TimeoutSeconds, std::string &Err,
                         DialError &DE) {
  if (TimeoutSeconds <= 0) {
    if (::connect(Fd, Addr, Len) < 0) {
      DE = classifyDialErrno(errno);
      Err = std::string("connect(): ") + std::strerror(errno);
      return false;
    }
    return true;
  }
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  int R = ::connect(Fd, Addr, Len);
  if (R < 0 && errno != EINPROGRESS) {
    DE = classifyDialErrno(errno);
    Err = std::string("connect(): ") + std::strerror(errno);
    return false;
  }
  if (R < 0) {
    net::Deadline D = net::Deadline::in(TimeoutSeconds);
    while (true) {
      pollfd P{Fd, POLLOUT, 0};
      int Ms = D.pollMs();
      if (Ms == 0) {
        DE = DialError::Timeout;
        Err = "connect(): timed out after " +
              std::to_string(TimeoutSeconds) + "s";
        return false;
      }
      int PR = ::poll(&P, 1, Ms);
      if (PR < 0 && errno == EINTR)
        continue;
      if (PR <= 0) {
        if (D.expired()) {
          DE = DialError::Timeout;
          Err = "connect(): timed out after " +
                std::to_string(TimeoutSeconds) + "s";
          return false;
        }
        continue;
      }
      break;
    }
    int SoErr = 0;
    socklen_t SL = sizeof SoErr;
    if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &SL) < 0 ||
        SoErr != 0) {
      DE = classifyDialErrno(SoErr ? SoErr : errno);
      Err = std::string("connect(): ") + std::strerror(SoErr ? SoErr : errno);
      return false;
    }
  }
  ::fcntl(Fd, F_SETFL, Flags);
  return true;
}

int islaris::server::connectEndpoint(const Endpoint &E, double TimeoutSeconds,
                                     std::string &Err, DialError *DE) {
  DialError Local = DialError::None;
  DialError &D = DE ? *DE : Local;
  D = DialError::None;
  if (E.K == Endpoint::Kind::Unix) {
    sockaddr_un Addr{};
    if (E.Path.size() >= sizeof Addr.sun_path) {
      Err = "socket path too long: " + E.Path;
      D = DialError::Other;
      return -1;
    }
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = std::string("socket(): ") + std::strerror(errno);
      D = DialError::Other;
      return -1;
    }
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, E.Path.c_str(), E.Path.size() + 1);
    std::string CErr;
    if (!connectTimed(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr,
                      TimeoutSeconds, CErr, D)) {
      Err = E.Path + ": " + CErr;
      ::close(Fd);
      return -1;
    }
    return Fd;
  }

  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  std::string PortStr = std::to_string(E.Port);
  int GA = ::getaddrinfo(E.Host.c_str(), PortStr.c_str(), &Hints, &Res);
  if (GA != 0) {
    Err = "getaddrinfo(" + E.Host + "): " + ::gai_strerror(GA);
    D = DialError::Other;
    return -1;
  }
  int Fd = -1;
  std::string LastErr = "no addresses";
  D = DialError::Other;
  for (addrinfo *A = Res; A; A = A->ai_next) {
    Fd = ::socket(A->ai_family, A->ai_socktype, A->ai_protocol);
    if (Fd < 0)
      continue;
    std::string CErr;
    DialError AD = DialError::None;
    if (connectTimed(Fd, A->ai_addr, A->ai_addrlen, TimeoutSeconds, CErr,
                     AD)) {
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
      D = DialError::None;
      break;
    }
    LastErr = CErr;
    D = AD;
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  if (Fd < 0)
    Err = E.str() + ": " + LastErr;
  return Fd;
}

int islaris::server::connectSpec(const std::string &Spec,
                                 double TimeoutSeconds, std::string &Err,
                                 DialError *DE) {
  Endpoint E;
  if (!parseEndpoint(Spec, E, Err)) {
    if (DE)
      *DE = DialError::Other;
    return -1;
  }
  return connectEndpoint(E, TimeoutSeconds, Err, DE);
}
