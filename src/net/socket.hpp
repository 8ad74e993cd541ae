#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

namespace dc::net {

/// Result of a blocking receive on a Socket.
enum class RecvStatus {
  kOk,      ///< the requested bytes were read in full
  kClosed,  ///< orderly shutdown by the peer before (or mid-) read
  kError    ///< socket error
};

/// Thin RAII wrapper over one file descriptor (a TCP socket here, but any
/// fd works — the corrupt-frame fuzz tests drive it with pipes). Move-only;
/// closes on destruction. All I/O helpers loop over partial transfers, so
/// callers deal in whole messages.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Releases ownership without closing.
  int release() { return std::exchange(fd_, -1); }

  void close();

  /// Half-closes the read and/or write side (::shutdown). Safe to call from
  /// another thread to unblock a blocking recv_all / send_all — this is how
  /// the transport's recv threads are woken at teardown.
  void shutdown_both();

  /// Writes the whole span (looping over partial sends, EINTR-safe,
  /// SIGPIPE-suppressed). Returns false on any error.
  bool send_all(std::span<const std::byte> data);

  /// Scatter-gather send: writes every iovec in order as one (or, past
  /// IOV_MAX or a partial write, a few) ::sendmsg calls. Same error and
  /// signal semantics as send_all. `vecs` is mutated in place while
  /// resuming partial writes.
  bool send_vecs(iovec* vecs, std::size_t count);

  /// Reads exactly data.size() bytes. kClosed if the peer closed before any
  /// or all bytes arrived.
  RecvStatus recv_all(std::span<std::byte> data) {
    std::size_t got = 0;
    return recv_exact(data, got);
  }

  /// Like recv_all, but reports how many bytes actually arrived — the wire
  /// layer uses this to tell a clean close (0 bytes) from a truncated
  /// message (some bytes, then EOF).
  RecvStatus recv_exact(std::span<std::byte> data, std::size_t& got);

 private:
  int fd_ = -1;
};

/// Creates a TCP listener bound to 127.0.0.1:`port` (0 = ephemeral).
/// Throws std::runtime_error on failure.
[[nodiscard]] Socket listen_loopback(std::uint16_t port, int backlog);

/// The port a listener (or connected socket) is bound to.
[[nodiscard]] std::uint16_t local_port(const Socket& s);

/// Connects to 127.0.0.1:`port`, retrying (connection-refused only) until
/// `timeout_s` elapses. Throws std::runtime_error on failure/timeout.
/// TCP_NODELAY is set: frames are small and latency-sensitive (credits).
[[nodiscard]] Socket connect_loopback(std::uint16_t port, double timeout_s = 10.0);

/// Accepts one connection; blocks up to `timeout_s` (throws on timeout or
/// error). TCP_NODELAY is set on the accepted socket.
[[nodiscard]] Socket accept_one(Socket& listener, double timeout_s = 10.0);

}  // namespace dc::net
