// Per-processor mailbox with (source, tag) matched receive.
//
// Messages queue per source: one FIFO per sending processor, in a
// vector indexed by the source id.  A source's queue is allocated when
// that source sends its first message and lives as long as the
// mailbox, so steady-state traffic allocates nothing per message
// beyond the queue's own chunked growth.  Matching a receive scans the
// source's queue for the first message carrying the wanted tag, and
// FIFO order per (src, tag) pair falls out of the queue order.  SPMD
// programs receive from a source in the order it sent, so the match is
// expected at the head; DESIGN.md section 7 gives the measured share.
// A receive out of send order still works, at the cost of a linear
// scan and a mid-queue erase under the lock.
//
// Keying queues by source rather than by (src, tag) matters because
// collective tags are fresh on every call: a per-(src, tag) bucket
// would be created and destroyed for nearly every message.
//
// Receivers that find no match register a Waiter carrying the key they
// wait for; put() notifies only the waiter whose key matches the
// arriving message.  This kills the thundering-herd wakeups the old
// single condition_variable caused during tree folds and broadcasts on
// large processor counts.  Two waiter flavours plug into the same
// list: the blocking get() below parks on a per-call
// condition_variable (the `threads` engine), and the pooled engine's
// fibers park on the executor's scheduler (see parix/executor.h).
//
// Follows the C++ Core Guidelines concurrency rules: the mutex lives
// next to the data it guards, waits always use a predicate, and locks
// are scoped (CP.42, CP.44, CP.50).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "parix/message.h"

namespace skil::parix {

class Mailbox {
 public:
  /// A parked receiver waiting for one (src, tag) key.  notify() is
  /// called with the mailbox lock held and must not block; one-shot
  /// waiters are deregistered by the notifying side, persistent ones
  /// deregister themselves (the condition-variable path below).
  struct Waiter {
    int src = -1;
    long tag = 0;
    bool one_shot = false;
    virtual void notify() = 0;

   protected:
    ~Waiter() = default;
  };

  /// Enqueues a message (called from the sender's thread) and wakes
  /// the matching waiter, if any.
  void put(Message msg);

  /// Blocks until a message with matching (src, tag) is available and
  /// removes it.  FIFO order is preserved per (src, tag) pair because a
  /// sender's messages are enqueued in program order.
  ///
  /// Throws RuntimeFault if the mailbox is poisoned (another processor
  /// failed) or if `timeout` elapses (deadlock guard for the test
  /// suite).
  Message get(int src, long tag,
              std::chrono::milliseconds timeout = std::chrono::minutes(4));

  /// Non-blocking variant for schedulers that park the caller
  /// themselves: returns the matching message, or registers `waiter`
  /// and returns nullopt.  The caller must suspend until notified and
  /// then retry.  Throws RuntimeFault if the mailbox is poisoned.
  std::optional<Message> take_or_wait(int src, long tag, Waiter& waiter);

  /// Wakes all blocked receivers with an error; used when any SPMD
  /// processor terminates exceptionally so its peers do not hang
  /// forever.
  void poison(const std::string& reason);

  /// Number of queued messages (for tests/diagnostics).
  std::size_t pending() const;

 private:
  /// Removes the first message from `src` carrying `tag`.  Requires
  /// the lock; returns nullopt when nothing matches.
  std::optional<Message> pop_match(int src, long tag);

  mutable std::mutex mutex_;
  /// queues_[src]: messages from `src` in arrival order; null until
  /// `src` first sends.
  std::vector<std::unique_ptr<std::deque<Message>>> queues_;
  std::vector<Waiter*> waiters_;
  std::size_t pending_ = 0;
  bool poisoned_ = false;
  std::string poison_reason_;
};

}  // namespace skil::parix
