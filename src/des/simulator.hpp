// Discrete-event simulation kernel.
//
// The paper's experiments measure execution time on physical clusters and
// a 3-site grid. Those measurements are reproduced here in *virtual
// time*, independent of the host's core count: every computation and
// message transfer is accounted by a deterministic event-driven simulator
// while the numerical work itself (Newton iterations on the real
// Brusselator system) executes for real inside the event handlers. The
// result is a bit-reproducible experiment whose reported times have the
// same structure as the paper's wall-clock measurements.
//
// Typed-record contract: an event is a plain 24-byte record
// {time, sequence, kind, arg}. The simulator never interprets `kind` or
// `arg`; its owner gives them meaning (core::SimEngine uses the kind for
// "start iteration", "deliver boundary", ... and the arg for a rank or a
// slot index) and dispatches every record through one handler passed to
// step()/run()/run_until(), called as `handler(kind, arg)` with now()
// already advanced to the event's time. State an event needs beyond two
// integers lives in the owner's tables, addressed by `arg`.
//
// Determinism contract: events at equal timestamps execute in scheduling
// order (FIFO tie-breaking by a monotonically increasing sequence number),
// so a simulation is a pure function of its inputs and seeds.
//
// Container: the pending records are one array sorted by (time, sequence)
// and consumed from a head index. A record earlier than all pending ones
// goes in front of the head; any other insertion is located from the
// tail, so an in-order schedule appends. cancel() erases the record
// exactly. At the engine's depth (a few dozen pending events) this beats
// a binary heap: see DESIGN.md §10. Once the array has grown to the deepest queue
// of the run, scheduling and executing allocate nothing.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace aiac::des {

/// Virtual time in seconds.
using SimTime = double;

/// Opaque handle used to cancel a scheduled event.
struct EventId {
  std::uint64_t value = 0;
  bool operator==(const EventId&) const = default;
};

/// One scheduled event. `kind` and `arg` belong to the owner.
struct Event {
  SimTime time = 0.0;
  std::uint64_t sequence = 0;
  std::uint32_t kind = 0;
  std::uint32_t arg = 0;
};
static_assert(sizeof(Event) == 24, "event records stay 24 bytes");

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedules the record (kind, arg) at absolute virtual time `t`
  /// (must be >= now()).
  EventId schedule_at(SimTime t, std::uint32_t kind, std::uint32_t arg);

  /// Schedules the record (kind, arg) after a non-negative delay.
  EventId schedule_after(SimTime delay, std::uint32_t kind,
                         std::uint32_t arg);

  /// Cancels a pending event by erasing its record. Cancelling an
  /// already-executed, already-cancelled or unknown event is a no-op.
  /// Returns true if the event was still pending.
  bool cancel(EventId id);

  /// Executes the next event through `handler(kind, arg)`; returns false
  /// when the queue is empty or the simulation was stopped.
  template <class Handler>
  bool step(Handler&& handler);

  /// Runs until the queue drains, stop() is called, or the event budget is
  /// exhausted (a runaway-loop guard): at most `max_events` events
  /// execute, and a further pending event throws std::runtime_error.
  template <class Handler>
  void run(Handler&& handler, std::uint64_t max_events = UINT64_MAX);

  /// Runs until virtual time exceeds `t_end` (events at <= t_end execute;
  /// later ones stay queued). Same event budget as run().
  template <class Handler>
  void run_until(SimTime t_end, Handler&& handler,
                 std::uint64_t max_events = UINT64_MAX);

  /// Makes run()/run_until() return after the current event completes.
  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }

  std::uint64_t events_executed() const noexcept { return executed_; }
  std::size_t pending_events() const noexcept { return tail_ - head_; }

 private:
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  /// Pending records in queue_[head_, tail_), sorted by (time, sequence).
  /// queue_.size() is the storage; it changes only in make_tail_room().
  std::vector<Event> queue_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;

  bool has_live_event() const noexcept {
    return head_ != tail_ && !stopped_;
  }
  /// Removes the head record, advances the clock to it and returns it.
  Event pop_head() noexcept {
    const Event ev = queue_[head_++];
    now_ = ev.time;
    ++executed_;
    return ev;
  }
  /// Frees the slot at queue_[tail_]: slides the live records to the
  /// front when at least half the storage is consumed, grows it otherwise
  /// (only while the queue reaches a new depth).
  void make_tail_room();
};

template <class Handler>
bool Simulator::step(Handler&& handler) {
  if (!has_live_event()) return false;
  const Event ev = pop_head();
  handler(ev.kind, ev.arg);
  return true;
}

template <class Handler>
void Simulator::run(Handler&& handler, std::uint64_t max_events) {
  // The budget is checked before an event executes: a run of exactly
  // max_events events completes, one more throws with max_events done.
  std::uint64_t budget = max_events;
  while (has_live_event()) {
    if (budget-- == 0)
      throw std::runtime_error("Simulator::run: event budget exhausted");
    const Event ev = pop_head();
    handler(ev.kind, ev.arg);
  }
}

template <class Handler>
void Simulator::run_until(SimTime t_end, Handler&& handler,
                          std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  while (has_live_event() && queue_[head_].time <= t_end) {
    if (budget-- == 0)
      throw std::runtime_error("Simulator::run_until: event budget exhausted");
    const Event ev = pop_head();
    handler(ev.kind, ev.arg);
  }
  if (!stopped_ && t_end > now_) now_ = t_end;
}

}  // namespace aiac::des
