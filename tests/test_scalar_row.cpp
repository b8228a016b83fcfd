// Parity of the scalar Jacobi row kernel: Brusselator's fused
// scalar_euler_row against the per-component default path, reached through
// a forwarding wrapper that overrides only the pure virtuals (the shape of
// a probe or any other wrapping system). The contract is bitwise: values,
// iteration counts, converged flags and residual, and — end to end — the
// simulator's virtual time, work and trajectory.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "ode/brusselator.hpp"
#include "ode/newton.hpp"

namespace {

using namespace aiac;

/// Forwards the pure virtuals to `inner` and counts the per-component
/// evaluations; every batched entry point keeps its default.
class Forwarding final : public ode::OdeSystem {
 public:
  explicit Forwarding(const ode::OdeSystem& inner) : inner_(inner) {}
  std::size_t dimension() const noexcept override {
    return inner_.dimension();
  }
  std::size_t stencil_halfwidth() const noexcept override {
    return inner_.stencil_halfwidth();
  }
  double rhs_component(std::size_t j, double t,
                       std::span<const double> window) const override {
    ++component_calls;
    return inner_.rhs_component(j, t, window);
  }
  double rhs_partial(std::size_t j, std::size_t k, double t,
                     std::span<const double> window) const override {
    ++partial_calls;
    return inner_.rhs_partial(j, k, t, window);
  }
  void initial_state(std::span<double> y) const override {
    inner_.initial_state(y);
  }

  mutable std::size_t component_calls = 0;
  mutable std::size_t partial_calls = 0;

 private:
  const ode::OdeSystem& inner_;
};

ode::Brusselator make_bruss(std::size_t grid_points) {
  ode::Brusselator::Params p;
  p.grid_points = grid_points;
  return ode::Brusselator(p);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Frozen rows of components j-2 .. j+2 over `pts` points: the initial
/// state perturbed by `spread`, with every out-of-domain row NaN so a
/// kernel that reads one poisons its result.
std::vector<double> old_rows_for(const ode::Brusselator& sys, std::size_t j,
                                 std::size_t pts, double spread,
                                 std::uint32_t seed) {
  std::vector<double> y0(sys.dimension());
  sys.initial_state(y0);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-spread, spread);
  std::vector<double> rows(5 * pts);
  for (std::size_t slot = 0; slot < 5; ++slot) {
    const auto k = static_cast<std::ptrdiff_t>(j + slot) - 2;
    const bool inside =
        k >= 0 && k < static_cast<std::ptrdiff_t>(sys.dimension());
    for (std::size_t step = 0; step < pts; ++step)
      rows[slot * pts + step] =
          inside ? y0[static_cast<std::size_t>(k)] + noise(rng)
                 : std::numeric_limits<double>::quiet_NaN();
  }
  return rows;
}

struct RowRun {
  ode::ScalarRowResult result;
  std::vector<double> row;
};

RowRun run_row(const ode::OdeSystem& sys, std::size_t j, double dt,
               const std::vector<double>& old_rows, std::size_t pts,
               const ode::NewtonOptions& opts) {
  RowRun run;
  run.row.assign(pts, 0.0);
  run.row[0] = old_rows[2 * pts];  // initial value: the center row's t=0
  std::vector<double> window(sys.window_size());
  run.result = sys.scalar_euler_row(j, dt, old_rows, run.row, opts, window);
  return run;
}

void expect_bitwise(const RowRun& fused, const RowRun& reference) {
  EXPECT_EQ(fused.result.iterations, reference.result.iterations);
  EXPECT_EQ(fused.result.all_converged, reference.result.all_converged);
  EXPECT_TRUE(same_bits(fused.result.residual, reference.result.residual))
      << fused.result.residual << " vs " << reference.result.residual;
  ASSERT_EQ(fused.row.size(), reference.row.size());
  for (std::size_t step = 0; step < fused.row.size(); ++step)
    EXPECT_TRUE(same_bits(fused.row[step], reference.row[step]))
        << "step " << step << ": " << fused.row[step] << " vs "
        << reference.row[step];
}

/// Every component of an N-point Brusselator — even (u) and odd (v) rows,
/// both Dirichlet ends — through the fused and the default path.
void check_all_components(std::size_t grid_points, double dt,
                          const ode::NewtonOptions& opts, double spread) {
  const ode::Brusselator bare = make_bruss(grid_points);
  const Forwarding wrapped(bare);
  constexpr std::size_t kSteps = 12;
  constexpr std::size_t kPts = kSteps + 1;
  for (std::size_t j = 0; j < bare.dimension(); ++j) {
    SCOPED_TRACE("j = " + std::to_string(j));
    const auto old_rows =
        old_rows_for(bare, j, kPts, spread, static_cast<std::uint32_t>(j));
    const std::size_t calls_before = wrapped.component_calls;
    const RowRun fused = run_row(bare, j, dt, old_rows, kPts, opts);
    const RowRun reference = run_row(wrapped, j, dt, old_rows, kPts, opts);
    expect_bitwise(fused, reference);
    // The default path evaluates once per Newton check: iterations plus
    // one final check per step, each one rhs_component + one rhs_partial.
    const std::size_t evals = wrapped.component_calls - calls_before;
    EXPECT_EQ(evals, reference.result.iterations + kSteps);
    EXPECT_EQ(wrapped.partial_calls, wrapped.component_calls);
    for (const double v : fused.row) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ScalarRowParity, EveryComponentMatchesTheDefaultPath) {
  check_all_components(6, 0.05, ode::NewtonOptions{}, 0.3);
}

TEST(ScalarRowParity, SinglePointTouchesBothDirichletEnds) {
  // N = 1: i == 0 and i + 1 == N hold at once for both components.
  check_all_components(1, 0.05, ode::NewtonOptions{}, 0.3);
}

TEST(ScalarRowParity, LargeStepsAndLooseIterates) {
  check_all_components(5, 0.8, ode::NewtonOptions{}, 1.5);
}

TEST(ScalarRowParity, ZeroIterationBudget) {
  ode::NewtonOptions opts;
  opts.max_iterations = 0;
  check_all_components(6, 0.05, opts, 0.3);
}

TEST(ScalarRowParity, NegativeToleranceExhaustsTheBudget) {
  ode::NewtonOptions opts;
  opts.tolerance = -1.0;
  opts.max_iterations = 3;
  check_all_components(6, 0.05, opts, 0.3);
  // And the budget really is what ends every step.
  const ode::Brusselator bare = make_bruss(6);
  const auto old_rows = old_rows_for(bare, 4, 9, 0.3, 11);
  const RowRun fused = run_row(bare, 4, 0.05, old_rows, 9, opts);
  EXPECT_FALSE(fused.result.all_converged);
  EXPECT_EQ(fused.result.iterations, 8u * opts.max_iterations);
}

TEST(ScalarRowParity, DerivativeClampOnBothSigns) {
  // min_derivative far above |1 - dt df| clamps every step; at dt = 0.8
  // with loose iterates g' takes both signs across the components.
  ode::NewtonOptions opts;
  opts.min_derivative = 50.0;
  opts.max_iterations = 6;
  check_all_components(5, 0.8, opts, 1.5);
  // The warm starts really put g' = 1 - dt df on both sides of zero.
  const ode::Brusselator sys = make_bruss(5);
  bool negative = false;
  bool positive = false;
  std::vector<double> window(5);
  for (std::size_t j = 0; j < sys.dimension(); ++j) {
    const auto old_rows =
        old_rows_for(sys, j, 13, 1.5, static_cast<std::uint32_t>(j));
    for (std::size_t step = 1; step < 13; ++step) {
      for (std::size_t slot = 0; slot < 5; ++slot)
        window[slot] = old_rows[slot * 13 + step];
      const double gp = 1.0 - 0.8 * sys.rhs_partial(j, j, 0.0, window);
      negative |= gp < 0.0;
      positive |= gp > 0.0;
    }
  }
  EXPECT_TRUE(negative);
  EXPECT_TRUE(positive);
}

TEST(ScalarRowParity, RowMatchesPerStepSolves) {
  // The row driver is the per-step scalar solve in a loop: both public
  // overloads of scalar_implicit_euler_solve give the same bits.
  const ode::Brusselator sys = make_bruss(6);
  constexpr std::size_t kPts = 11;
  const double dt = 0.1;
  const ode::NewtonOptions opts;
  ode::NewtonWorkspace ws;
  for (const std::size_t j : {std::size_t{0}, std::size_t{5},
                              std::size_t{11}}) {
    const auto old_rows = old_rows_for(sys, j, kPts, 0.3, 7);
    const RowRun fused = run_row(sys, j, dt, old_rows, kPts, opts);
    std::vector<double> window(5);
    double y_prev = old_rows[2 * kPts];
    std::size_t iterations = 0;
    for (std::size_t step = 1; step < kPts; ++step) {
      for (std::size_t slot = 0; slot < 5; ++slot)
        window[slot] = old_rows[slot * kPts + step];
      const double t_next = dt * static_cast<double>(step);
      const auto plain = ode::scalar_implicit_euler_solve(
          sys, j, y_prev, window, t_next, dt, opts);
      const auto pooled = ode::scalar_implicit_euler_solve(
          sys, j, y_prev, window, t_next, dt, opts, ws);
      EXPECT_TRUE(same_bits(plain.value, fused.row[step]));
      EXPECT_TRUE(same_bits(pooled.value, fused.row[step]));
      EXPECT_EQ(plain.iterations, pooled.iterations);
      iterations += plain.iterations;
      y_prev = plain.value;
    }
    EXPECT_EQ(iterations, fused.result.iterations);
  }
}

TEST(ScalarRowParity, RejectsMisshapenRows) {
  const ode::Brusselator bare = make_bruss(4);
  const Forwarding wrapped(bare);
  std::vector<double> old_rows(5 * 4, 1.0);
  std::vector<double> row(5, 1.0);  // 5 points, rows sized for 4
  std::vector<double> window(5);
  const ode::NewtonOptions opts;
  EXPECT_THROW(bare.scalar_euler_row(0, 0.1, old_rows, row, opts, window),
               std::invalid_argument);
  EXPECT_THROW(wrapped.scalar_euler_row(0, 0.1, old_rows, row, opts, window),
               std::invalid_argument);
  row.resize(4);
  EXPECT_THROW(bare.scalar_euler_row(8, 0.1, old_rows, row, opts, window),
               std::out_of_range);
}

// ---- End to end ---------------------------------------------------------

TEST(ScalarRowParity, SimulatedRunIsIdenticalThroughTheDefaultPath) {
  // AIAC with balancing on a loaded heterogeneous grid: migrations move
  // rows between blocks, so every component sweeps from several owners.
  const ode::Brusselator bare = make_bruss(16);
  const Forwarding wrapped(bare);
  core::EngineConfig config;
  config.scheme = core::Scheme::kAIAC;
  config.load_balancing = true;
  config.solve_mode = ode::LocalSolveMode::kScalarJacobi;
  config.num_steps = 20;
  config.t_end = 2.0;
  config.tolerance = 1e-7;
  config.balancer.trigger_period = 3;
  config.max_iterations_per_processor = 2000000;
  grid::HeterogeneousGridParams grid_params;
  grid_params.machines = 3;
  grid_params.seed = 5;
  auto grid_fused = grid::make_heterogeneous_grid(grid_params);
  auto grid_default = grid::make_heterogeneous_grid(grid_params);

  const auto fused = core::run_simulated(bare, *grid_fused, config);
  const auto reference = core::run_simulated(wrapped, *grid_default, config);
  ASSERT_TRUE(fused.converged);
  ASSERT_TRUE(reference.converged);
  EXPECT_GT(wrapped.component_calls, 0u);
  EXPECT_TRUE(same_bits(fused.execution_time, reference.execution_time));
  EXPECT_TRUE(same_bits(fused.total_work, reference.total_work));
  EXPECT_EQ(fused.total_iterations, reference.total_iterations);
  EXPECT_EQ(fused.migrations, reference.migrations);
  const auto a = fused.solution.raw();
  const auto b = reference.solution.raw();
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (!same_bits(a[k], b[k])) ++differing;
  EXPECT_EQ(differing, 0u);
}

}  // namespace
