#include "des/simulator.hpp"

#include <algorithm>

namespace aiac::des {

EventId Simulator::schedule_at(SimTime t, std::uint32_t kind,
                               std::uint32_t arg) {
  if (!(t >= now_))  // also rejects NaN
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  const std::uint64_t seq = next_sequence_++;
  // Earlier than every pending record (the engine's iteration start, due
  // at now()): take the consumed slot in front of the head.
  if (head_ > 0 && (head_ == tail_ || t < queue_[head_].time)) {
    queue_[--head_] = Event{t, seq, kind, arg};
    return EventId{seq};
  }
  if (tail_ == queue_.size()) make_tail_room();
  // Locate from the tail, shifting later records up as we go. The new
  // record carries the largest sequence, so it lands after every record
  // at time <= t: FIFO among simultaneous events, and an in-order
  // schedule appends without moving anything.
  std::size_t pos = tail_++;
  while (pos > head_ && queue_[pos - 1].time > t) {
    queue_[pos] = queue_[pos - 1];
    --pos;
  }
  queue_[pos] = Event{t, seq, kind, arg};
  return EventId{seq};
}

EventId Simulator::schedule_after(SimTime delay, std::uint32_t kind,
                                  std::uint32_t arg) {
  if (!(delay >= 0.0))  // also rejects NaN
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  return schedule_at(now_ + delay, kind, arg);
}

bool Simulator::cancel(EventId id) {
  const auto first = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto last = queue_.begin() + static_cast<std::ptrdiff_t>(tail_);
  const auto it = std::find_if(first, last, [id](const Event& ev) {
    return ev.sequence == id.value;
  });
  if (it == last) return false;  // executed, cancelled, or never issued
  std::copy(it + 1, last, it);
  --tail_;
  return true;
}

void Simulator::make_tail_room() {
  const std::size_t live = tail_ - head_;
  if (head_ > 0 && head_ >= live) {
    std::copy(queue_.begin() + static_cast<std::ptrdiff_t>(head_),
              queue_.begin() + static_cast<std::ptrdiff_t>(tail_),
              queue_.begin());
    head_ = 0;
    tail_ = live;
    return;
  }
  queue_.resize(std::max<std::size_t>(16, 2 * queue_.size()));
}

}  // namespace aiac::des
