// POSIX socket primitives of the transport layer.
//
// Everything above this file speaks Fd and Endpoint; everything below it is
// ::socket/::bind/::listen plumbing. All sockets the subsystem creates are
// nonblocking and close-on-exec — the event loop owns readiness, never the
// kernel's blocking behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "util/result.hpp"

namespace protoobf::net {

/// Owning file-descriptor handle. Close-on-destroy, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }

  /// Hands ownership to the caller.
  int release() { return std::exchange(fd_, -1); }

  /// Closes the current descriptor (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// A TCP address. Port 0 asks the kernel for an ephemeral port — read the
/// actual one back with local_port() after binding.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Creates a nonblocking listening socket bound to `ep` (IPv4 dotted quad
/// or "localhost"). `reuse_port` additionally sets SO_REUSEPORT, letting N
/// sharded acceptors bind the same endpoint and have the kernel spread
/// incoming connections across them.
Expected<Fd> listen_tcp(const Endpoint& ep, int backlog,
                        bool reuse_port = false);

/// Starts a nonblocking connect to `ep`. The returned socket is usually
/// still connecting: wait for writability, then check take_socket_error().
Expected<Fd> connect_tcp(const Endpoint& ep);

/// Accepts one pending connection as a nonblocking socket. An empty Fd
/// (valid() == false) means the backlog is drained (EAGAIN) — not an error.
Expected<Fd> accept_tcp(int listen_fd);

/// Disables Nagle coalescing — an obfuscated request/response exchange is
/// latency-bound on small frames.
Status set_nodelay(int fd);

/// Shrinks/pins SO_SNDBUF (0 = leave the kernel default). Tests use a tiny
/// send buffer to force partial writes and exercise backpressure.
Status set_send_buffer(int fd, int bytes);

/// Port the kernel actually bound (resolves port-0 ephemeral binds).
Expected<std::uint16_t> local_port(int fd);

/// Pending asynchronous error (SO_ERROR), cleared by reading; 0 = none.
int take_socket_error(int fd);

}  // namespace protoobf::net
