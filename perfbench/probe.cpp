#include "probe.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

constexpr std::size_t kMaxLanes = 64;

double monotonic_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Per-call timestamps. The invariant TSC costs a few nanoseconds where
// clock_gettime costs ~20, which matters on the scalar-Jacobi path that
// makes millions of sub-100 ns calls per solve. It is calibrated once
// against CLOCK_MONOTONIC; elsewhere the monotonic clock is used as is.
#if defined(__x86_64__) || defined(__i386__)
std::uint64_t ticks() { return __rdtsc(); }

double seconds_per_tick() {
  static const double value = [] {
    const double s0 = monotonic_s();
    const std::uint64_t t0 = ticks();
    double s1 = s0;
    while (s1 - s0 < 0.05) s1 = monotonic_s();
    const std::uint64_t t1 = ticks();
    return (s1 - s0) / static_cast<double>(t1 - t0);
  }();
  return value;
}
#else
std::uint64_t ticks() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
double seconds_per_tick() { return 1e-9; }
#endif

// What an empty timed region reads: subtracted from every timed call, so
// a 20 ns call is not charged the timer's own cost on top.
std::uint64_t timer_overhead_ticks() {
  static const std::uint64_t value = [] {
    std::vector<std::uint64_t> reads(4096);
    for (auto& r : reads) {
      const std::uint64_t t0 = ticks();
      r = ticks() - t0;
    }
    std::nth_element(reads.begin(), reads.begin() + 2048, reads.end());
    return reads[2048];
  }();
  return value;
}

// The probe's entry points. The scalar ones run millions of times per
// solve on the scalar-Jacobi path, at ~20 ns each; timing every such call
// would cost more than the call. They are counted every time and timed
// every kSamplePeriod-th call of the same entry point (one entry point's
// calls all cost alike, so the sample mean scales to the count).
enum Method {
  kRhsComponent,
  kRhsPartial,
  kJacobianRow,
  kRhsRange,
  kJacobianRange,
  kInitialState,
  kRhsFull,
  kMethods
};
constexpr std::uint64_t kSamplePeriod[kMethods] = {64, 64, 16, 1, 1, 1, 1};

struct alignas(64) Slot {
  std::uint64_t calls[kMethods];
  std::uint64_t timed[kMethods];
  std::uint64_t ticks[kMethods];  // over the timed calls
  std::uint64_t first;            // start of the first call
  std::uint64_t last;             // end of the last timed call
};

struct LaneCache {
  const void* owner = nullptr;
  std::uint64_t epoch = 0;
  Slot* slot = nullptr;
};
thread_local LaneCache t_lane;

}  // namespace

double now_s() { return monotonic_s(); }

struct OdeProbe::Shared {
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint32_t> next{0};
  Slot slots[kMaxLanes];

  Slot* acquire() {
    const std::uint64_t e = epoch.load(std::memory_order_acquire);
    if (t_lane.owner == this && t_lane.epoch == e) return t_lane.slot;
    const std::uint32_t i = next.fetch_add(1);
    Slot* slot = i < kMaxLanes ? &slots[i] : nullptr;
    t_lane = {this, e, slot};
    return slot;
  }
};

OdeProbe::OdeProbe() : shared_(std::make_unique<Shared>()) {
  (void)seconds_per_tick();  // calibrate outside any timed region
  (void)timer_overhead_ticks();
}

OdeProbe::~OdeProbe() = default;

void OdeProbe::begin(const aiac::ode::OdeSystem& inner) {
  inner_ = &inner;
  std::memset(static_cast<void*>(shared_->slots), 0, sizeof(shared_->slots));
  shared_->next.store(0);
  shared_->epoch.fetch_add(1, std::memory_order_release);
}

std::vector<LaneStats> OdeProbe::lanes() const {
  const std::size_t used = shared_->next.load();
  if (used > kMaxLanes)
    throw std::runtime_error("OdeProbe: more calling threads than lanes");
  const double spt = seconds_per_tick();
  std::vector<LaneStats> out;
  for (std::size_t i = 0; i < used; ++i) {
    const Slot& s = shared_->slots[i];
    LaneStats lane;
    for (int m = 0; m < kMethods; ++m) {
      if (s.calls[m] == 0) continue;
      lane.calls += s.calls[m];
      lane.busy_s += static_cast<double>(s.ticks[m]) * spt *
                     static_cast<double>(s.calls[m]) /
                     static_cast<double>(s.timed[m]);
    }
    if (lane.calls == 0) continue;
    lane.solving = lane.calls > s.calls[kInitialState];
    lane.first_s = static_cast<double>(s.first) * spt;
    lane.last_s = static_cast<double>(s.last) * spt;
    out.push_back(lane);
  }
  return out;
}

template <int M, typename F>
auto OdeProbe::timed(F&& call) const {
  Slot* slot = shared_->acquire();
  if (slot == nullptr) return call();
  const std::uint64_t n = slot->calls[M]++;
  if (n % kSamplePeriod[M] != 0) return call();
  const std::uint64_t t0 = ticks();
  const auto finish = [&] {
    const std::uint64_t t1 = ticks();
    ++slot->timed[M];
    slot->ticks[M] += t1 - t0 - std::min(t1 - t0, timer_overhead_ticks());
    if (slot->first == 0) slot->first = t0;
    slot->last = t1;
  };
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    finish();
  } else {
    auto value = call();
    finish();
    return value;
  }
}

std::size_t OdeProbe::dimension() const noexcept {
  return inner_->dimension();
}

std::size_t OdeProbe::stencil_halfwidth() const noexcept {
  return inner_->stencil_halfwidth();
}

double OdeProbe::rhs_component(std::size_t j, double t,
                               std::span<const double> window) const {
  return timed<kRhsComponent>([&] { return inner_->rhs_component(j, t, window); });
}

double OdeProbe::rhs_partial(std::size_t j, std::size_t k, double t,
                             std::span<const double> window) const {
  return timed<kRhsPartial>([&] { return inner_->rhs_partial(j, k, t, window); });
}

void OdeProbe::jacobian_band_row(std::size_t j, double t,
                                 std::span<const double> window,
                                 std::span<double> band) const {
  timed<kJacobianRow>([&] { inner_->jacobian_band_row(j, t, window, band); });
}

void OdeProbe::rhs_range(std::size_t first, std::size_t count, double t,
                         std::span<const double> y_ext,
                         std::span<double> out) const {
  timed<kRhsRange>([&] { inner_->rhs_range(first, count, t, y_ext, out); });
}

void OdeProbe::jacobian_band_range(std::size_t first, std::size_t count,
                                   double t, std::span<const double> y_ext,
                                   std::span<double> band_rows) const {
  timed<kJacobianRange>([&] { inner_->jacobian_band_range(first, count, t, y_ext, band_rows); });
}

void OdeProbe::initial_state(std::span<double> y) const {
  timed<kInitialState>([&] { inner_->initial_state(y); });
}

void OdeProbe::rhs_full(double t, std::span<const double> y,
                        std::span<double> dydt) const {
  timed<kRhsFull>([&] { inner_->rhs_full(t, y, dydt); });
}

}  // namespace perfbench
