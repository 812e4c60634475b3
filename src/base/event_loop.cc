#include "src/base/event_loop.h"

#include <algorithm>
#include <utility>

namespace healer {

void EventLoop::ScheduleAt(SimClock::Nanos deadline, Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  timers_.push_back(Timer{deadline, next_seq_++, std::move(cb)});
  std::push_heap(timers_.begin(), timers_.end(), FiresLater);
}

void EventLoop::ScheduleAfter(SimClock::Nanos delay, Callback cb) {
  ScheduleAt(now() + delay, std::move(cb));
}

size_t EventLoop::AddCompletionSource(Callback handler) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(std::make_unique<CompletionSource>());
  sources_.back()->handler = std::move(handler);
  return sources_.size() - 1;
}

void EventLoop::SignalCompletion(size_t source) {
  if (source >= sources_.size()) {
    return;
  }
  // Doorbell order matters: publish the pending count before the flag, so a
  // pumper that observes the flag always sees the count (WakeupFd::Signal).
  sources_[source]->pending.fetch_add(1, std::memory_order_release);
  completions_pending_.store(true, std::memory_order_release);
}

size_t EventLoop::RunCompletions() {
  size_t n = 0;
  if (completions_pending_.exchange(false, std::memory_order_acquire)) {
    for (auto& source : sources_) {
      if (source->pending.exchange(0, std::memory_order_acquire) > 0) {
        source->handler();
        ++n;
      }
    }
  }
  dispatched_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

size_t EventLoop::RunUntil(SimClock::Nanos horizon) {
  size_t n = RunCompletions();
  for (;;) {
    // The batch: every timer armed for the earliest deadline, popped in arm
    // order. Timers the batch arms join a later batch.
    std::vector<Timer> due;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (timers_.empty() || timers_.front().deadline > horizon) {
        break;
      }
      const SimClock::Nanos deadline = timers_.front().deadline;
      while (!timers_.empty() && timers_.front().deadline == deadline) {
        std::pop_heap(timers_.begin(), timers_.end(), FiresLater);
        due.push_back(std::move(timers_.back()));
        timers_.pop_back();
      }
    }
    if (due.front().deadline > now()) {
      now_.store(due.front().deadline, std::memory_order_relaxed);
    }
    for (Timer& timer : due) {
      timer.cb();
    }
    n += due.size();
    dispatched_.fetch_add(due.size(), std::memory_order_relaxed);
    // Doorbells the batch rang run at its virtual time, before any later
    // deadline fires.
    n += RunCompletions();
  }
  if (horizon > now()) {
    now_.store(horizon, std::memory_order_relaxed);
  }
  return n;
}

size_t EventLoop::RunUntilIdle() {
  size_t n = RunCompletions();
  for (SimClock::Nanos next = NextDeadline(); next != kNoDeadline;
       next = NextDeadline()) {
    n += RunUntil(next);
  }
  return n;
}

SimClock::Nanos EventLoop::NextDeadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.empty() ? kNoDeadline : timers_.front().deadline;
}

size_t EventLoop::pending_timers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.size();
}

}  // namespace healer
