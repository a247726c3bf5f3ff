#include "parix/mailbox.h"

#include <algorithm>

#include "support/error.h"

namespace skil::parix {

namespace {

/// The threads engine's waiter: one condition variable per blocked
/// get() call, signalled only when its own key matches.
struct CvWaiter final : Mailbox::Waiter {
  std::condition_variable cv;
  void notify() override { cv.notify_one(); }
};

}  // namespace

std::optional<Message> Mailbox::pop_match(int src, long tag) {
  if (static_cast<std::size_t>(src) >= queues_.size() || !queues_[src])
    return std::nullopt;
  std::deque<Message>& queue = *queues_[src];
  const auto it = std::find_if(queue.begin(), queue.end(),
                               [tag](const Message& m) { return m.tag == tag; });
  if (it == queue.end()) return std::nullopt;
  Message msg = std::move(*it);
  queue.erase(it);
  --pending_;
  return msg;
}

void Mailbox::put(Message msg) {
  const std::scoped_lock lock(mutex_);
  const int src = msg.src;
  const long tag = msg.tag;
  if (static_cast<std::size_t>(src) >= queues_.size())
    queues_.resize(static_cast<std::size_t>(src) + 1);
  if (!queues_[src]) queues_[src] = std::make_unique<std::deque<Message>>();
  queues_[src]->push_back(std::move(msg));
  ++pending_;
  const auto it = std::find_if(
      waiters_.begin(), waiters_.end(),
      [&](const Waiter* w) { return w->src == src && w->tag == tag; });
  if (it != waiters_.end()) {
    Waiter* to_wake = *it;
    if (to_wake->one_shot) waiters_.erase(it);
    // Waking under the lock keeps the waiter alive: a CvWaiter lives
    // on the stack of a get() that cannot resume until we unlock,
    // and a fiber waiter is only retired by the executor after its
    // fiber reruns take_or_wait, which also needs this lock.
    to_wake->notify();
  }
}

Message Mailbox::get(int src, long tag, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  CvWaiter self;
  self.src = src;
  self.tag = tag;
  bool registered = false;
  auto deregister = [&] {
    if (!registered) return;
    const auto it = std::find(waiters_.begin(), waiters_.end(), &self);
    if (it != waiters_.end()) waiters_.erase(it);
    registered = false;
  };
  for (;;) {
    if (poisoned_) {
      deregister();
      throw support::RuntimeFault("receive aborted: " + poison_reason_);
    }
    if (auto msg = pop_match(src, tag)) {
      deregister();
      return std::move(*msg);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      deregister();
      throw support::RuntimeFault(
          "receive timed out (possible deadlock): waiting for src=" +
          std::to_string(src) + " tag=" + std::to_string(tag));
    }
    if (!registered) {
      waiters_.push_back(&self);
      registered = true;
    }
    self.cv.wait_until(lock, deadline);
  }
}

std::optional<Message> Mailbox::take_or_wait(int src, long tag,
                                             Waiter& waiter) {
  const std::scoped_lock lock(mutex_);
  if (poisoned_)
    throw support::RuntimeFault("receive aborted: " + poison_reason_);
  if (auto msg = pop_match(src, tag)) return msg;
  waiter.src = src;
  waiter.tag = tag;
  waiter.one_shot = true;
  waiters_.push_back(&waiter);
  return std::nullopt;
}

void Mailbox::poison(const std::string& reason) {
  std::vector<Waiter*> to_wake;
  {
    const std::scoped_lock lock(mutex_);
    poisoned_ = true;
    poison_reason_ = reason;
    to_wake = waiters_;
    // One-shot (fiber) waiters are consumed by this notification;
    // persistent CvWaiters deregister themselves when they observe
    // the poison flag.
    std::erase_if(waiters_, [](const Waiter* w) { return w->one_shot; });
    for (Waiter* w : to_wake) w->notify();
  }
}

std::size_t Mailbox::pending() const {
  const std::scoped_lock lock(mutex_);
  return pending_;
}

}  // namespace skil::parix
