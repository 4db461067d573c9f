#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace protoobf::net {

namespace {

Unexpected errno_error(const std::string& what) {
  return Unexpected(what + ": " + std::strerror(errno));
}

Expected<sockaddr_in> resolve(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Unexpected("cannot parse IPv4 address '" + ep.host + "'");
  }
  return addr;
}

Expected<Fd> new_socket() {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) return errno_error("socket");
  return fd;
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Expected<Fd> listen_tcp(const Endpoint& ep, int backlog, bool reuse_port) {
  auto addr = resolve(ep);
  if (!addr) return Unexpected(addr.error());
  auto fd = new_socket();
  if (!fd) return fd;

  const int one = 1;
  // SO_REUSEADDR so restarts do not trip over TIME_WAIT remnants of the
  // previous instance; SO_REUSEPORT only on request (sharded acceptors).
  (void)::setsockopt(fd->get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuse_port &&
      ::setsockopt(fd->get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) !=
          0) {
    return errno_error("setsockopt(SO_REUSEPORT)");
  }
  if (::bind(fd->get(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof *addr) != 0) {
    return errno_error("bind " + ep.host + ":" + std::to_string(ep.port));
  }
  if (::listen(fd->get(), backlog) != 0) return errno_error("listen");
  return fd;
}

Expected<Fd> connect_tcp(const Endpoint& ep) {
  auto addr = resolve(ep);
  if (!addr) return Unexpected(addr.error());
  auto fd = new_socket();
  if (!fd) return fd;
  if (::connect(fd->get(), reinterpret_cast<const sockaddr*>(&*addr),
                sizeof *addr) != 0 &&
      errno != EINPROGRESS) {
    return errno_error("connect " + ep.host + ":" + std::to_string(ep.port));
  }
  return fd;
}

Expected<Fd> accept_tcp(int listen_fd) {
  const int fd =
      ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) return Fd(fd);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED ||
      errno == EINTR) {
    return Fd();  // backlog drained (or a connection died in it) — no error
  }
  return errno_error("accept");
}

Status set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0) {
    return errno_error("setsockopt(TCP_NODELAY)");
  }
  return Status::success();
}

Status set_send_buffer(int fd, int bytes) {
  if (bytes <= 0) return Status::success();
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes) != 0) {
    return errno_error("setsockopt(SO_SNDBUF)");
  }
  return Status::success();
}

Expected<std::uint16_t> local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_error("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

int take_socket_error(int fd) {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

}  // namespace protoobf::net
