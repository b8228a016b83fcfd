// In-process message-passing primitives for the threaded (PM²-like)
// backend. Two delivery disciplines match the paper's two message kinds:
//
//  * SlotBox — a one-slot "latest value wins" box for boundary data. The
//    paper's mutual exclusion ("if there is no left communication in
//    progress") exists to avoid queueing redundant boundary updates; in
//    shared memory the equivalent is overwriting the unread slot.
//  * Mailbox — a FIFO queue for load-balancing payloads, which must all be
//    absorbed, in order.
//
// Both notify an optional shared Notifier on push so the owning thread can
// sleep on "anything arrived".
#pragma once

#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

#include "runtime/notifier.hpp"

namespace aiac::runtime {

/// What a fault hook asks a channel to do with one delivery. `delay` is
/// served by the pushing thread before the value is committed (the
/// shared-memory stand-in for message transit time); `replay_stale` asks a
/// SlotBox to clobber the fresh value with the previously delivered one —
/// the adversarial equivalent of an old in-flight message arriving last.
struct ChannelFault {
  std::chrono::microseconds delay{0};
  bool replay_stale = false;
};

/// Interception point for fault injection (see fault_injector.hpp). A hook
/// is consulted on every push/put of the channel it is attached to; it must
/// be safe to call from any pushing thread. Channels treat a null hook as
/// "no faults" at the cost of a single branch.
class ChannelFaultHook {
 public:
  virtual ~ChannelFaultHook() = default;
  virtual ChannelFault on_deliver() = 0;
};

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Notifier* notifier = nullptr) : notifier_(notifier) {}

  /// Attaches a fault hook (nullptr detaches). Not synchronized with
  /// concurrent push/pop: install hooks before the channel goes live.
  void set_fault_hook(ChannelFaultHook* hook) { hook_ = hook; }

  void push(T value) {
    if (hook_) {
      const ChannelFault fault = hook_->on_deliver();
      if (fault.delay.count() > 0) std::this_thread::sleep_for(fault.delay);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(value));
    }
    if (notifier_) notifier_->notify();
  }

  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    return value;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.empty();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::deque<T> queue_;
  Notifier* notifier_;
  ChannelFaultHook* hook_ = nullptr;
};

template <typename T>
class SlotBox {
 public:
  explicit SlotBox(Notifier* notifier = nullptr) : notifier_(notifier) {}

  /// Attaches a fault hook (nullptr detaches). Not synchronized with
  /// concurrent put/take: install hooks before the channel goes live.
  /// Stale replay additionally requires T to be copy-constructible.
  void set_fault_hook(ChannelFaultHook* hook) { hook_ = hook; }

  /// Overwrites any unread value ("latest data wins"). Returns the
  /// displaced unread value, if any, so the pushing thread can recycle
  /// its buffers (see runtime::BufferPool) — overwritten boundary data
  /// would otherwise be destroyed here, on the hot path, allocatively.
  std::optional<T> put(T value) {
    if (hook_) return put_with_faults(std::move(value));
    std::optional<T> displaced;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      displaced = std::move(slot_);
      slot_ = std::move(value);
    }
    if (notifier_) notifier_->notify();
    return displaced;
  }

  /// Takes the value, leaving the slot empty.
  std::optional<T> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::optional<T> value = std::move(slot_);
    slot_.reset();
    return value;
  }

  bool has_value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slot_.has_value();
  }

  /// Calls `fn(value)` on the unread value, if any, under the slot lock,
  /// leaving it in place.
  template <typename Fn>
  void peek(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slot_) fn(*slot_);
  }

 private:
  std::optional<T> put_with_faults(T value) {
    const ChannelFault fault = hook_->on_deliver();
    if (fault.delay.count() > 0) std::this_thread::sleep_for(fault.delay);
    std::optional<T> displaced;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      displaced = std::move(slot_);
      if constexpr (std::is_copy_constructible_v<T>) {
        if (fault.replay_stale && stale_copy_) {
          // The previously delivered value arrives "again", after (and
          // therefore clobbering) the fresh one. The fresh value is kept
          // as the stale copy so a repeated replay cannot resurrect
          // arbitrarily old data: staleness is bounded by one delivery.
          T fresh = std::move(value);
          slot_ = *stale_copy_;
          stale_copy_ = std::move(fresh);
        } else {
          stale_copy_ = value;
          slot_ = std::move(value);
        }
      } else {
        slot_ = std::move(value);
      }
    }
    if (notifier_) notifier_->notify();
    return displaced;
  }

  struct Empty {};
  mutable std::mutex mutex_;
  std::optional<T> slot_;
  // Last committed value, kept only while a fault hook is attached (put()
  // without a hook never touches it, keeping the fault-free path cost and
  // semantics unchanged).
  std::conditional_t<std::is_copy_constructible_v<T>, std::optional<T>, Empty>
      stale_copy_;
  Notifier* notifier_;
  ChannelFaultHook* hook_ = nullptr;
};

}  // namespace aiac::runtime
