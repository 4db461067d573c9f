#include "net/connection.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.hpp"

namespace protoobf::net {

FramerFactory length_prefix_framer_factory(LengthPrefixFramer::Config config) {
  return [config]() -> Expected<std::unique_ptr<Framer>> {
    return std::unique_ptr<Framer>(new LengthPrefixFramer(config));
  };
}

FramerFactory obfuscated_framer_factory(
    std::shared_ptr<const ObfuscatedProtocol> framing,
    ObfuscatedFramer::Config config) {
  return [framing = std::move(framing),
          config]() -> Expected<std::unique_ptr<Framer>> {
    auto framer = ObfuscatedFramer::create(framing, config);
    if (!framer) return Unexpected(framer.error());
    return std::unique_ptr<Framer>(std::move(*framer));
  };
}

Connection::Connection(EventLoop& loop, Fd fd,
                       std::shared_ptr<const ObfuscatedProtocol> protocol,
                       std::unique_ptr<Framer> framer, Config config)
    : loop_(loop),
      fd_(std::move(fd)),
      config_(config),
      metrics_(config.metrics != nullptr ? *config.metrics
                                         : obs::NetMetrics::client()),
      trace_id_(obs::Tracer::global().next_conn_id()),
      session_(std::move(protocol)),
      framer_(std::move(framer)),
      channel_(session_, *framer_) {
  read_buf_.resize(config_.read_chunk > 0 ? config_.read_chunk : 4096);
  touch();
}

Connection::~Connection() {
  // Destroyed live (owner teardown): detach quietly, no handlers.
  if (state_ != State::Closed) {
    if (idle_timer_ != 0) loop_.cancel_timer(idle_timer_);
    if (drain_timer_ != 0) loop_.cancel_timer(drain_timer_);
    loop_.unwatch(fd_.get());
    ops().on_close(fd_.get());
    state_ = State::Closed;
    if (counted_active_) {
      counted_active_ = false;
      metrics_.active.sub(1);
      metrics_.closed.add(1);
    }
  }
}

Status Connection::open() {
  // Nagle off: obfuscated exchanges are small-frame request/response
  // traffic, the classic pathological case for delayed coalescing.
  (void)set_nodelay(fd_.get());
  if (Status s = set_send_buffer(fd_.get(), config_.send_buffer); !s) return s;
  // send() — and even close() — before open() is legal (Connector hands
  // out unopened connections; accept handlers may greet-and-close).
  // Anything queued needs EPOLLOUT from the first arm, want_write_ must
  // reflect the installed mask, and a connection already Draining must
  // not listen for input it would ignore (a level-triggered EPOLLIN it
  // never reads would spin the loop).
  want_write_ = queued() > 0;
  const std::uint32_t base =
      state_ == State::Draining ? 0u : static_cast<std::uint32_t>(EPOLLIN);
  const std::uint32_t events =
      base | (want_write_ ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (Status s = loop_.watch(fd_.get(), events,
                             [this](std::uint32_t ev) { handle_events(ev); });
      !s) {
    return s;
  }
  ops().on_open(fd_.get());
  metrics_.accepted.add(1);
  metrics_.active.add(1);
  counted_active_ = true;
  if (config_.idle_timeout > std::chrono::milliseconds::zero()) {
    // One periodic check instead of a re-armed one-shot per byte: activity
    // just stamps a timestamp, and the sweep fires at most one period late.
    idle_timer_ = loop_.add_timer(config_.idle_timeout,
                                  [this] { check_idle(); },
                                  config_.idle_timeout);
  }
  return Status::success();
}

Status Connection::send(const Inst& message, std::uint64_t msg_seed) {
  if (state_ != State::Open) {
    return Unexpected("send on a closed connection");
  }
  auto framed = channel_.send(message, msg_seed);
  if (!framed) return Unexpected(framed.error());

  const bool was_empty = queued() == 0;
  append(outbuf_, *framed);
  // Inside a read slice the frame waits for the slice-end flush, so all of
  // the slice's replies leave in one write. Outside one nothing else will
  // flush it: a frame that found the queue empty goes to the kernel now,
  // and EPOLLOUT takes whatever the kernel leaves.
  if (!in_slice_) {
    if (was_empty) {
      if (Status s = flush_out(); !s) {
        fail_close(transport_error(s.error().message));
        return Unexpected("send failed: connection closed");
      }
    }
    if (queued() > 0) want_write(true);
  }
  if (!writable() && !above_watermark_) {
    above_watermark_ = true;
    metrics_.backpressure.add(1);
    obs::Tracer::global().record(trace_id_, obs::TraceEvent::Backpressure,
                                 queued());
  }
  ++stats_.messages_out;
  metrics_.messages_out.add(1);
  obs::Tracer::global().record(trace_id_, obs::TraceEvent::FrameOut,
                               framed->size());
  touch();
  return Status::success();
}

void Connection::close() {
  // Already Draining: a second graceful close is a no-op — re-entering
  // would orphan the armed drain timer (it would outlive the connection).
  if (state_ != State::Open) return;
  if (queued() == 0) {
    do_close(nullptr);
    return;
  }
  // Half-close discipline: stop reading, keep EPOLLOUT armed until the
  // queue drains, then finish in handle_writable().
  state_ = State::Draining;
  want_write_ = true;
  (void)loop_.rearm(fd_.get(), EPOLLOUT);
  if (config_.drain_timeout > std::chrono::milliseconds::zero()) {
    // A peer whose receive window never opens would otherwise pin this
    // fd (and up to high_watermark queued bytes) forever.
    drain_timer_ = loop_.add_timer(config_.drain_timeout, [this] {
      if (state_ == State::Draining) {
        fail_close(transport_error("drain timeout: peer stopped reading"));
      }
    });
  }
}

void Connection::abort() {
  if (state_ == State::Closed) return;
  outbuf_.clear();
  outhead_ = 0;
  do_close(nullptr);
}

void Connection::handle_events(std::uint32_t events) {
  if (state_ == State::Closed) return;
  if ((events & EPOLLIN) != 0 && state_ == State::Open) {
    handle_readable();
    if (state_ == State::Closed) return;
  }
  if ((events & EPOLLOUT) != 0) {
    handle_writable();
    if (state_ == State::Closed) return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    const int err = take_socket_error(fd_.get());
    if (err == 0 && (events & EPOLLERR) == 0) {
      // Plain hang-up with no pending error: the read path has already
      // consumed everything it will get; treat as peer close.
      if (channel_.reader().buffered() > 0) {
        fail_close(transport_error("peer hung up mid-frame"));
      } else {
        do_close(nullptr);
      }
      return;
    }
    fail_close(transport_error(
        "socket error: " + std::string(std::strerror(err != 0 ? err : EIO))));
  }
}

void Connection::handle_readable() {
  for (;;) {
    const ssize_t n = ops().recv(fd_.get(), read_buf_.data(),
                                 read_buf_.size());
    if (n > 0) {
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      metrics_.bytes_in.add(static_cast<std::uint64_t>(n));
      touch();
      if (config_.capture != nullptr) {
        config_.capture->record_in(
            BytesView(read_buf_).first(static_cast<std::size_t>(n)));
      }
      // Frame latency per readable slice: decode, parse and handlers for
      // everything this read delivered, not the flush that follows. Two
      // clock reads per recv(), so the cost is tied to syscall rate, not
      // message rate.
      const std::uint64_t t0 = obs::now_ns();
      in_slice_ = true;
      channel_.on_bytes(BytesView(read_buf_).first(static_cast<std::size_t>(n)));
      pump_receive();
      in_slice_ = false;
      metrics_.frame_ns.record(obs::now_ns() - t0);
      // The slice's replies leave together, through the EPOLLOUT path's own
      // bookkeeping: a flush that skipped its watermark hysteresis would
      // never fire on_writable when the kernel takes the whole queue.
      if (state_ != State::Closed && queued() > 0) handle_writable();
      if (state_ != State::Open) return;
      if (static_cast<std::size_t>(n) < read_buf_.size()) return;
      continue;  // the slice was full — more may be pending
    }
    if (n == 0) {
      // EOF. Anything still buffered is the front of a frame that will
      // never complete: a truncation by definition, not a malformation.
      if (channel_.reader().buffered() > 0) {
        fail_close(transport_error("peer closed mid-frame"));
      } else {
        do_close(nullptr);
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    fail_close(
        transport_error("read: " + std::string(std::strerror(errno))));
    return;
  }
}

void Connection::handle_writable() {
  if (Status s = flush_out(); !s) {
    fail_close(transport_error(s.error().message));
    return;
  }
  // Half-drain hysteresis: the producer is told to resume as soon as the
  // queue dips under half the watermark — not only at empty — so it can
  // refill while the kernel keeps draining. The callback may send (and
  // even re-trip the watermark) or close; both are re-checked below.
  if (above_watermark_ && queued() < config_.high_watermark / 2) {
    above_watermark_ = false;
    if (writable_cb_ && state_ == State::Open) writable_cb_(*this);
    if (state_ == State::Closed) return;
  }
  if (queued() > 0) {
    want_write(true);  // the slice-end flush arrives with EPOLLOUT unarmed
    return;
  }
  if (state_ == State::Draining) {
    do_close(nullptr);
    return;
  }
  want_write(false);
}

void Connection::pump_receive() {
  while (auto message = channel_.receive()) {
    ++stats_.messages_in;
    metrics_.messages_in.add(1);
    obs::Tracer::global().record(trace_id_, obs::TraceEvent::FrameIn,
                                 stats_.messages_in);
    if (message_cb_) message_cb_(*this, std::move(*message));
    if (state_ != State::Open) return;  // handler closed the connection
  }
  if (channel_.failed()) {
    // A framing error is sticky and unrecoverable for a connection (no
    // resync policy over TCP: the peer is speaking a different protocol).
    // The replies to the messages before the bad frame still go out, as
    // far as the kernel takes them.
    (void)flush_out();
    fail_close(Error(channel_.error()));
  }
}

Status Connection::flush_out() {
  while (outhead_ < outbuf_.size()) {
    // MSG_NOSIGNAL: a peer that vanished must surface as EPIPE on this
    // connection, not as a process-wide SIGPIPE.
    const ssize_t n = ops().send(fd_.get(), outbuf_.data() + outhead_,
                                 outbuf_.size() - outhead_, MSG_NOSIGNAL);
    if (n > 0) {
      outhead_ += static_cast<std::size_t>(n);
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      metrics_.bytes_out.add(static_cast<std::uint64_t>(n));
      metrics_.writes.add(1);
      touch();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Unexpected("write: " + std::string(std::strerror(errno)));
  }
  if (outhead_ == outbuf_.size()) {
    outbuf_.clear();
    outhead_ = 0;
  } else if (outhead_ > 64 * 1024 && outhead_ >= outbuf_.size() - outhead_) {
    // Same amortized compaction rule as StreamReader::feed.
    outbuf_.erase(outbuf_.begin(),
                  outbuf_.begin() + static_cast<std::ptrdiff_t>(outhead_));
    outhead_ = 0;
  }
  return Status::success();
}

void Connection::want_write(bool enable) {
  if (enable == want_write_) return;
  want_write_ = enable;
  const std::uint32_t base =
      state_ == State::Draining ? 0u : static_cast<std::uint32_t>(EPOLLIN);
  (void)loop_.rearm(
      fd_.get(), base | (enable ? static_cast<std::uint32_t>(EPOLLOUT) : 0u));
}

void Connection::check_idle() {
  if (state_ == State::Closed) return;
  const auto idle = std::chrono::steady_clock::now() - last_activity_;
  if (idle < config_.idle_timeout) return;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(idle).count();
  fail_close(transport_error("idle timeout after " + std::to_string(ms) +
                             "ms"));
}

Error Connection::transport_error(std::string what) {
  // Transport failures — the peer vanished, the kernel gave up, the idle
  // sweep struck — mean the byte stream ended or broke before the
  // conversation did. That is the taxonomy's Truncated, whatever the
  // buffer held; Malformed stays reserved for framing/parse failures
  // (bytes that can never parse no matter what follows).
  return Error{std::move(what), Error::kNoOffset, ErrorKind::Truncated,
               channel_.need_bytes()};
}

void Connection::fail_close(Error err) { do_close(&err); }

void Connection::do_close(const Error* err) {
  if (state_ == State::Closed) return;
  state_ = State::Closed;
  if (counted_active_) {
    counted_active_ = false;
    metrics_.active.sub(1);
    metrics_.closed.add(1);
  }
  // Close taxonomy: clean (no error), Truncated (transport broke), or
  // Malformed (framing/parse failure) — the DPI-facing distinction.
  std::uint64_t taxonomy = 0;
  if (err != nullptr) {
    if (err->kind == ErrorKind::Malformed) {
      taxonomy = 2;
      metrics_.close_malformed.add(1);
      obs::Tracer::global().record(trace_id_, obs::TraceEvent::ParseError,
                                   channel_.reader().buffered());
    } else {
      taxonomy = 1;
      metrics_.close_truncated.add(1);
    }
  } else {
    metrics_.close_clean.add(1);
  }
  obs::Tracer::global().record(trace_id_, obs::TraceEvent::Close, taxonomy);
  if (idle_timer_ != 0) {
    loop_.cancel_timer(idle_timer_);
    idle_timer_ = 0;
  }
  if (drain_timer_ != 0) {
    loop_.cancel_timer(drain_timer_);
    drain_timer_ = 0;
  }
  loop_.unwatch(fd_.get());
  ops().on_close(fd_.get());
  fd_.reset();
  if (close_cb_) close_cb_(*this, err);
  // Owner reclaim runs last — it may schedule this object's destruction.
  if (owner_hook_) owner_hook_(*this);
}

}  // namespace protoobf::net
