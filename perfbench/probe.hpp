// Outside-in instrumentation for the benchmark.
//
// OdeProbe is an ode::OdeSystem that forwards every virtual call to the
// real problem and counts and times it per calling thread ("lane").
// Nothing under src/ knows the probe exists: the engines see an ordinary
// OdeSystem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ode/ode_system.hpp"

namespace perfbench {

/// Seconds on the host's monotonic clock (CLOCK_MONOTONIC).
double now_s();

/// What one thread spent inside the ODE system during one solve.
struct LaneStats {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  double first_s = 0.0;  // the lane's first call, on a clock of its own
  double last_s = 0.0;   // its last timed return, on the same clock
  /// False for a thread that only built initial states (the caller of
  /// the engine, say) and never evaluated the system inside a solve.
  bool solving = false;
};

class OdeProbe final : public aiac::ode::OdeSystem {
 public:
  OdeProbe();
  ~OdeProbe() override;
  OdeProbe(const OdeProbe&) = delete;
  OdeProbe& operator=(const OdeProbe&) = delete;

  /// Starts a solve on `inner`: forgets every lane of the previous one.
  void begin(const aiac::ode::OdeSystem& inner);
  /// Lanes that made at least one call since begin(). Read only after the
  /// engine has joined its threads.
  std::vector<LaneStats> lanes() const;

  std::size_t dimension() const noexcept override;
  std::size_t stencil_halfwidth() const noexcept override;
  double rhs_component(std::size_t j, double t,
                       std::span<const double> window) const override;
  double rhs_partial(std::size_t j, std::size_t k, double t,
                     std::span<const double> window) const override;
  void jacobian_band_row(std::size_t j, double t,
                         std::span<const double> window,
                         std::span<double> band) const override;
  void rhs_range(std::size_t first, std::size_t count, double t,
                 std::span<const double> y_ext,
                 std::span<double> out) const override;
  void jacobian_band_range(std::size_t first, std::size_t count, double t,
                           std::span<const double> y_ext,
                           std::span<double> band_rows) const override;
  void initial_state(std::span<double> y) const override;
  void rhs_full(double t, std::span<const double> y,
                std::span<double> dydt) const override;

 private:
  struct Shared;  // the lane table (probe.cpp)

  template <int M, typename F>
  auto timed(F&& call) const;

  const aiac::ode::OdeSystem* inner_ = nullptr;
  std::unique_ptr<Shared> shared_;
};

}  // namespace perfbench
