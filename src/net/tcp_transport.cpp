#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/io.hpp"

namespace ipd {

namespace {

[[noreturn]] void raise_errno(NetErrc code, const std::string& what) {
  throw TransportError(code, what, errno_message(errno));
}

std::string describe(const sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr.sin_addr, host, sizeof host);
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

std::unique_ptr<TcpTransport> TcpTransport::connect(const std::string& host,
                                                    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_errno(NetErrc::kSocket, "tcp: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError(NetErrc::kBadAddress,
                         "tcp: bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    raise_errno(NetErrc::kConnect, "tcp: connect to " + describe(addr));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<TcpTransport>(fd, describe(addr));
}

TcpTransport::TcpTransport(int fd, std::string peer)
    : fd_(fd), peer_(std::move(peer)) {}

TcpTransport::~TcpTransport() {
  close();
  ::close(fd_);
}

std::size_t TcpTransport::read_some(MutByteView out) {
  if (out.empty()) return 0;
  for (;;) {
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return 0;  // orderly shutdown
    if (errno == EINTR) continue;
    if (closed_.load(std::memory_order_relaxed)) {
      throw TransportError(NetErrc::kClosedLocally,
                           "tcp: connection closed locally");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw TransportError(NetErrc::kTimeout,
                           "tcp: read timeout (idle connection)");
    }
    raise_errno(NetErrc::kRead, "tcp: recv from " + peer_);
  }
}

void TcpTransport::write_all(ByteView data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a process kill.
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (closed_.load(std::memory_order_relaxed)) {
        throw TransportError(NetErrc::kClosedLocally,
                             "tcp: connection closed locally");
      }
      raise_errno(NetErrc::kWrite, "tcp: send to " + peer_);
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpTransport::close() noexcept {
  if (!closed_.exchange(true, std::memory_order_relaxed)) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void TcpTransport::set_read_timeout(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void TcpTransport::set_nonblocking(bool enabled) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) raise_errno(NetErrc::kSocket, "tcp: fcntl(F_GETFL)");
  const int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, want) != 0) {
    raise_errno(NetErrc::kSocket, "tcp: fcntl(F_SETFL)");
  }
}

std::pair<std::unique_ptr<TcpTransport>, std::unique_ptr<TcpTransport>>
make_socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    raise_errno(NetErrc::kSocket, "socketpair");
  }
  return {std::make_unique<TcpTransport>(fds[0], "local"),
          std::make_unique<TcpTransport>(fds[1], "local")};
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) raise_errno(NetErrc::kSocket, "tcp: listener socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    raise_errno(NetErrc::kBind,
                "tcp: bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd_, backlog) != 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    raise_errno(NetErrc::kListen, "tcp: listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  close();
  ::close(fd_);
}

std::unique_ptr<TcpTransport> TcpListener::accept() {
  while (!closed_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      raise_errno(NetErrc::kPoll, "tcp: poll");
    }
    if (ready == 0) continue;  // poll timeout: re-check the stop flag
    if (std::unique_ptr<TcpTransport> conn = try_accept()) return conn;
  }
  return nullptr;
}

std::unique_ptr<TcpTransport> TcpListener::try_accept() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    const int fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return nullptr;
      if (closed_.load(std::memory_order_relaxed)) return nullptr;
      raise_errno(NetErrc::kAccept, "tcp: accept");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return std::make_unique<TcpTransport>(fd, describe(addr));
  }
}

void TcpListener::set_nonblocking(bool enabled) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) raise_errno(NetErrc::kSocket, "tcp: fcntl(F_GETFL)");
  const int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, want) != 0) {
    raise_errno(NetErrc::kSocket, "tcp: fcntl(F_SETFL)");
  }
}

void TcpListener::close() noexcept {
  closed_.store(true, std::memory_order_relaxed);
}

}  // namespace ipd
