#include "net/socket.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace dc::net {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool Socket::send_all(std::span<const std::byte> data) {
  const std::byte* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::send_vecs(iovec* vecs, std::size_t count) {
  std::size_t i = 0;
  while (i < count) {
    msghdr msg{};
    msg.msg_iov = vecs + i;
    msg.msg_iovlen = std::min<std::size_t>(count - i, IOV_MAX);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Consume n bytes across the iovecs: skip the fully written ones and
    // advance the base of a partially written one.
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0 && i < count) {
      if (left >= vecs[i].iov_len) {
        left -= vecs[i].iov_len;
        ++i;
      } else {
        vecs[i].iov_base = static_cast<std::byte*>(vecs[i].iov_base) + left;
        vecs[i].iov_len -= left;
        left = 0;
      }
    }
  }
  return true;
}

RecvStatus Socket::recv_exact(std::span<std::byte> data, std::size_t& got) {
  std::byte* p = data.data();
  std::size_t left = data.size();
  got = 0;
  while (left > 0) {
    const ssize_t n = ::recv(fd_, p, left, 0);
    if (n == 0) return RecvStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      // A shutdown_both() from another thread surfaces as various errnos
      // depending on timing; all of them mean "stop reading".
      return RecvStatus::kError;
    }
    p += n;
    got += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
  return RecvStatus::kOk;
}

Socket listen_loopback(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  Socket s(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) fail("listen");
  return s;
}

std::uint16_t local_port(const Socket& s) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("getsockname");
  }
  return ntohs(addr.sin_port);
}

Socket connect_loopback(std::uint16_t port, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    Socket s(fd);
    sockaddr_in addr = loopback_addr(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      set_nodelay(fd);
      return s;
    }
    if (errno != ECONNREFUSED && errno != EINTR) fail("connect");
    if (Clock::now() >= deadline) {
      throw std::runtime_error("net: connect 127.0.0.1:" +
                               std::to_string(port) + ": timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Socket accept_one(Socket& listener, double timeout_s) {
  pollfd pfd{};
  pfd.fd = listener.fd();
  pfd.events = POLLIN;
  // Absolute deadline: poll restarts after EINTR with the REMAINING time,
  // so a signal storm cannot extend the wait past timeout_s.
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int ms = static_cast<int>(std::max<long long>(0, left.count()));
    const int r = ::poll(&pfd, 1, ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (r == 0) throw std::runtime_error("net: accept timed out");
    break;
  }
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) fail("accept");
  set_nodelay(fd);
  return Socket(fd);
}

}  // namespace dc::net
