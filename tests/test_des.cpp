// Tests for the discrete-event simulation kernel: ordering, determinism,
// cancellation, and the run guards.
#include <gtest/gtest.h>

#include <vector>

#include "des/simulator.hpp"

namespace {

using aiac::des::EventId;
using aiac::des::Simulator;

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.schedule_after(0.5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel is a no-op
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{999}));
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
}

TEST(Simulator, RunUntilAdvancesClockWithoutLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventBudgetGuardsRunawayLoops) {
  Simulator sim;
  std::function<void()> reschedule = [&] {
    sim.schedule_after(1.0, reschedule);
  };
  sim.schedule_after(1.0, reschedule);
  EXPECT_THROW(sim.run(/*max_events=*/100), std::runtime_error);
}

TEST(Simulator, RunUntilSkipsACancelledHeadBeforePeeking) {
  // A cancelled event at the head must not let run_until peek its time
  // and then execute the next live event past t_end.
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  ASSERT_TRUE(sim.cancel(a));
  sim.run_until(2.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventBudgetAllowsExactlyMaxEvents) {
  const auto schedule_four = [](Simulator& sim) {
    for (int k = 1; k <= 4; ++k)
      sim.schedule_at(static_cast<double>(k), [] {});
  };
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_NO_THROW(sim.run(/*max_events=*/4));
    EXPECT_EQ(sim.events_executed(), 4u);
  }
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_THROW(sim.run(/*max_events=*/3), std::runtime_error);
    EXPECT_EQ(sim.events_executed(), 3u);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_NO_THROW(sim.run_until(10.0, /*max_events=*/4));
    EXPECT_EQ(sim.events_executed(), 4u);
  }
  {
    Simulator sim;
    schedule_four(sim);
    EXPECT_THROW(sim.run_until(10.0, /*max_events=*/3), std::runtime_error);
    EXPECT_EQ(sim.events_executed(), 3u);
  }
  {
    // A cancelled tail event is not charged to the budget.
    Simulator sim;
    schedule_four(sim);
    const EventId extra = sim.schedule_at(9.0, [] {});
    sim.cancel(extra);
    EXPECT_NO_THROW(sim.run(/*max_events=*/4));
    EXPECT_EQ(sim.events_executed(), 4u);
  }
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

}  // namespace
