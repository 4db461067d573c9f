// Nonblocking epoll event loop — the heartbeat of the socket transport.
//
// One EventLoop runs one thread (Server starts one per shard). It owns
// three kinds of wake-ups:
//
//   * fd readiness   — watch(fd, events, callback), level-triggered by
//     default with opt-in edge-triggered mode (EPOLLET); callbacks receive
//     the ready event mask;
//   * timers         — a single timerfd armed to the earliest deadline of a
//     min-heap, so N idle timeouts cost one kernel timer, not N;
//   * cross-thread   — post(fn) enqueues a task from any thread and kicks
//     an eventfd so the loop runs it promptly; the Server uses this for
//     round-robin fd handoff and for teardown.
//
// Dispatch safety: callbacks may unwatch fds (including their own) and
// cancel timers mid-batch. Watches carry a generation counter packed into
// the epoll user data, so an event for a watch that was removed — or
// removed-and-replaced — earlier in the same epoll_wait batch is dropped
// instead of dispatched to the wrong owner.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "util/result.hpp"

namespace protoobf::net {

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` (borrowed, not owned) for `events` (EPOLLIN/EPOLLOUT
  /// combination). `edge` opts into edge-triggered readiness — the callback
  /// must then drain until EAGAIN. One watch per fd.
  Status watch(int fd, std::uint32_t events, FdCallback cb, bool edge = false);

  /// Changes the event mask of an existing watch.
  Status rearm(int fd, std::uint32_t events);

  /// Drops the watch. Safe from inside any callback, including the watch's
  /// own; any event already harvested for it in this batch is discarded.
  void unwatch(int fd);

  /// One-shot (`interval` zero) or periodic timer. The callback runs on the
  /// loop thread. Returns an id for cancel_timer().
  TimerId add_timer(std::chrono::milliseconds delay, Task cb,
                    std::chrono::milliseconds interval =
                        std::chrono::milliseconds::zero());

  /// Cancels a pending timer. Safe from callbacks; cancelling an already-
  /// fired one-shot timer is a no-op.
  void cancel_timer(TimerId id);

  /// Enqueues `task` to run on the loop thread. Thread-safe; wakes the
  /// loop. Posted from the loop thread itself, the task still runs only
  /// after the current dispatch batch completes.
  void post(Task task);

  /// Dispatches until stop(). Must be called from exactly one thread — the
  /// thread that becomes the loop thread.
  void run();

  /// One epoll_wait round: dispatches whatever is ready within
  /// `timeout_ms` (-1 blocks). Returns the number of events dispatched.
  /// Tests and single-threaded drivers pump the loop with this.
  int run_once(int timeout_ms);

  /// Stops run() after the current batch. Thread-safe.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  struct Watch {
    std::uint32_t gen = 0;
    std::uint32_t events = 0;
    bool edge = false;
    FdCallback cb;
  };

  struct Timer {
    std::chrono::steady_clock::time_point deadline;
    TimerId id = 0;
    std::chrono::milliseconds interval{0};
    Task cb;
    bool cancelled = false;

    bool operator>(const Timer& other) const {
      return deadline > other.deadline ||
             (deadline == other.deadline && id > other.id);
    }
  };

  static std::uint64_t pack(int fd, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(fd)) << 32) |
           gen;
  }

  void arm_timerfd();
  void fire_timers();
  void drain_wakeup();
  void drain_tasks();

  Fd epoll_;
  Fd wakeup_;   // eventfd: post() kicks it
  Fd timerfd_;  // armed to the earliest heap deadline
  std::uint32_t next_gen_ = 1;
  std::unordered_map<int, Watch> watches_;

  std::vector<Timer> timers_;  // min-heap via std::push_heap/greater
  TimerId next_timer_ = 1;
  TimerId firing_timer_ = 0;       // timer whose callback is running
  bool firing_cancelled_ = false;  // that callback cancelled itself

  std::mutex task_mu_;
  std::vector<Task> tasks_;
  std::vector<Task> running_tasks_;  // swap target, avoids realloc per drain

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace protoobf::net
