#include "des/simulator.hpp"

#include <algorithm>
#include <cmath>

namespace aiac::des {

EventId Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (!(t >= now_) || std::isnan(t))
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  const std::uint64_t seq = next_sequence_++;
  queue_.push(Event{t, seq, std::move(fn)});
  return EventId{seq};
}

EventId Simulator::schedule_after(SimTime delay, std::function<void()> fn) {
  if (!(delay >= 0.0) || std::isnan(delay))
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::is_cancelled(std::uint64_t seq) const noexcept {
  return std::find(cancelled_.begin(), cancelled_.end(), seq) !=
         cancelled_.end();
}

bool Simulator::cancel(EventId id) {
  if (id.value == 0 || id.value >= next_sequence_) return false;
  if (is_cancelled(id.value)) return false;
  cancelled_.push_back(id.value);
  ++cancelled_in_queue_;
  return true;
}

void Simulator::drop_cancelled_heads() {
  if (cancelled_in_queue_ == 0) return;
  while (!queue_.empty() && is_cancelled(queue_.top().sequence)) {
    const std::uint64_t seq = queue_.top().sequence;
    queue_.pop();
    cancelled_.erase(std::remove(cancelled_.begin(), cancelled_.end(), seq),
                     cancelled_.end());
    --cancelled_in_queue_;
  }
}

bool Simulator::has_live_event() {
  drop_cancelled_heads();
  return !queue_.empty() && !stopped_;
}

void Simulator::execute_head() {
  // priority_queue::top returns const&; move out via const_cast is the
  // standard idiom to avoid copying the std::function.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ++executed_;
  ev.fn();
}

bool Simulator::step() {
  if (!has_live_event()) return false;
  execute_head();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  // The budget is checked before an event executes: a run of exactly
  // max_events events completes, one more throws with max_events done.
  std::uint64_t budget = max_events;
  while (has_live_event()) {
    if (budget-- == 0)
      throw std::runtime_error("Simulator::run: event budget exhausted");
    execute_head();
  }
}

void Simulator::run_until(SimTime t_end, std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  // has_live_event() drops cancelled heads first, so the peeked time is
  // that of the event executed next.
  while (has_live_event() && queue_.top().time <= t_end) {
    if (budget-- == 0)
      throw std::runtime_error("Simulator::run_until: event budget exhausted");
    execute_head();
  }
  if (!stopped_) now_ = std::max(now_, t_end);
}

}  // namespace aiac::des
