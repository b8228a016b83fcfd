// Tests for the discrete-event simulation kernel: ordering, determinism,
// cancellation, and the run guards. Events are typed records (kind, arg);
// each test dispatches them through a handler of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "des/simulator.hpp"

namespace {

using aiac::des::EventId;
using aiac::des::Simulator;

/// An executed event as the handler saw it.
struct Fired {
  std::uint32_t kind;
  std::uint32_t arg;
  double time;
  bool operator==(const Fired&) const = default;
};

/// A handler that logs every event it executes.
struct Log {
  explicit Log(Simulator& s) : sim(s) {}
  void operator()(std::uint32_t kind, std::uint32_t arg) {
    fired.push_back({kind, arg, sim.now()});
  }
  std::vector<std::uint32_t> args() const {
    std::vector<std::uint32_t> out;
    for (const Fired& f : fired) out.push_back(f.arg);
    return out;
  }
  Simulator& sim;
  std::vector<Fired> fired;
};

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  Log log(sim);
  sim.schedule_at(3.0, 0, 3);
  sim.schedule_at(1.0, 0, 1);
  sim.schedule_at(2.0, 0, 2);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, HandlerSeesKindArgAndTime) {
  Simulator sim;
  Log log(sim);
  sim.schedule_at(2.5, 7, UINT32_MAX);
  sim.schedule_at(0.5, UINT32_MAX, 0);
  sim.run(log);
  EXPECT_EQ(log.fired, (std::vector<Fired>{{UINT32_MAX, 0, 0.5},
                                            {7, UINT32_MAX, 2.5}}));
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  Log log(sim);
  for (std::uint32_t i = 0; i < 10; ++i) sim.schedule_at(1.0, 0, i);
  sim.run(log);
  ASSERT_EQ(log.fired.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(log.fired[i].arg, i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, /*kind=*/1, 0);
  sim.run([&](std::uint32_t kind, std::uint32_t) {
    ++fired;
    if (kind == 1) sim.schedule_after(0.5, /*kind=*/2, 0);
  });
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(5.0, 0, 0);
  sim.run([](std::uint32_t, std::uint32_t) {});
  EXPECT_THROW(sim.schedule_at(4.0, 0, 0), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, 0, 0), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EarlierThanEveryPendingEventGoesFirstButTiesStayFifo) {
  Simulator sim;
  Log log(sim);
  sim.schedule_at(2.0, 0, 0);
  sim.schedule_at(3.0, 0, 1);
  ASSERT_TRUE(sim.step(log));  // arg 0 at t = 2; its slot is free now
  sim.schedule_at(2.0, 0, 2);  // ahead of every pending event
  sim.schedule_at(3.0, 0, 3);  // ties arg 1: runs after it
  sim.schedule_at(2.5, 0, 4);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{0, 2, 4, 1, 3}));
  // An emptied queue takes new events in front of its head too.
  sim.schedule_at(4.0, 0, 5);
  sim.schedule_at(4.0, 0, 6);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{0, 2, 4, 1, 3, 5, 6}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  Log log(sim);
  const EventId id = sim.schedule_at(1.0, 0, 1);
  sim.schedule_at(2.0, 0, 2);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(id));  // double cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{2}));
}

TEST(Simulator, CancelErasesOnlyItsRecord) {
  Simulator sim;
  Log log(sim);
  std::vector<EventId> ids;
  for (std::uint32_t i = 0; i < 6; ++i)
    ids.push_back(sim.schedule_at(1.0 + (i % 3), 0, i));
  ASSERT_TRUE(sim.cancel(ids[4]));  // t = 2.0, queued behind arg 1
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{0, 3, 1, 2, 5}));
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{999}));
  EXPECT_FALSE(sim.cancel(EventId{}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelAfterExecutionIsANoOp) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, 0, 0);
  sim.run([](std::uint32_t, std::uint32_t) {});
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(id));  // a second cancel changes nothing either
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(EventId{id.value + 1}));  // never issued
  EXPECT_EQ(sim.pending_events(), 0u);
  // The queue still works afterwards.
  Log log(sim);
  sim.schedule_at(2.0, 0, 9);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{9}));
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  Log log(sim);
  sim.schedule_at(1.0, 0, 1);
  sim.schedule_at(2.0, 0, 2);
  sim.run([&](std::uint32_t kind, std::uint32_t arg) {
    log(kind, arg);
    sim.stop();
  });
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.step(log));
}

TEST(Simulator, RunUntilAdvancesClockWithoutLaterEvents) {
  Simulator sim;
  Log log(sim);
  sim.schedule_at(1.0, 0, 1);
  sim.schedule_at(10.0, 0, 10);
  sim.run_until(5.0, log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{1}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{1, 10}));
}

TEST(Simulator, EventBudgetGuardsRunawayLoops) {
  Simulator sim;
  const auto reschedule = [&](std::uint32_t kind, std::uint32_t arg) {
    sim.schedule_after(1.0, kind, arg);
  };
  sim.schedule_after(1.0, 0, 0);
  EXPECT_THROW(sim.run(reschedule, /*max_events=*/100), std::runtime_error);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, RunUntilSkipsACancelledHeadBeforePeeking) {
  // A cancelled event at the head must not let run_until peek its time
  // and then execute the next live event past t_end.
  Simulator sim;
  Log log(sim);
  const EventId a = sim.schedule_at(1.0, 0, 1);
  sim.schedule_at(5.0, 0, 5);
  ASSERT_TRUE(sim.cancel(a));
  sim.run_until(2.0, log);
  EXPECT_TRUE(log.fired.empty());
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run(log);
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{5}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventBudgetAllowsExactlyMaxEvents) {
  const auto schedule_four = [](Simulator& sim) {
    for (std::uint32_t k = 1; k <= 4; ++k)
      sim.schedule_at(static_cast<double>(k), 0, k);
  };
  const auto ignore = [](std::uint32_t, std::uint32_t) {};
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_NO_THROW(sim.run(ignore, /*max_events=*/4));
    EXPECT_EQ(sim.events_executed(), 4u);
  }
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_THROW(sim.run(ignore, /*max_events=*/3), std::runtime_error);
    EXPECT_EQ(sim.events_executed(), 3u);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_NO_THROW(sim.run_until(10.0, ignore, /*max_events=*/4));
    EXPECT_EQ(sim.events_executed(), 4u);
  }
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_THROW(sim.run_until(10.0, ignore, /*max_events=*/3),
                 std::runtime_error);
    EXPECT_EQ(sim.events_executed(), 3u);
  }
  {
    // A cancelled tail event is not charged to the budget.
    Simulator sim;
    schedule_four(sim);
    const EventId extra = sim.schedule_at(9.0, 0, 9);
    sim.cancel(extra);
    EXPECT_NO_THROW(sim.run(ignore, /*max_events=*/4));
    EXPECT_EQ(sim.events_executed(), 4u);
  }
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  Log log(sim);
  EXPECT_FALSE(sim.step(log));
  sim.schedule_at(1.0, 0, 1);
  EXPECT_TRUE(sim.step(log));
  EXPECT_FALSE(sim.step(log));
  EXPECT_EQ(log.args(), (std::vector<std::uint32_t>{1}));
}

TEST(Simulator, SteadyStateDepthKeepsOrderAcrossStorageReuse) {
  // A bounded-depth queue with events always scheduled ahead of the
  // clock: the storage slides its live records to the front instead of
  // growing, and order and counts stay exact throughout.
  Simulator sim;
  for (std::uint32_t i = 0; i < 32; ++i)
    sim.schedule_at(0.1 * static_cast<double>(i % 7), 0, i);
  double last = 0.0;
  std::uint64_t spawned = 0;
  sim.run([&](std::uint32_t, std::uint32_t arg) {
    EXPECT_GE(sim.now(), last);
    last = sim.now();
    if (spawned < 10000) {
      ++spawned;
      sim.schedule_after(0.05 * static_cast<double>(arg % 11), 0, arg + 1);
    }
    EXPECT_LE(sim.pending_events(), 32u);
  });
  EXPECT_EQ(sim.events_executed(), 32u + 10000u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
