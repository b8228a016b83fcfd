// Parity of the scalar Jacobi range kernel: Brusselator's lane-parallel
// scalar_euler_rows against the per-component default path, reached
// through a forwarding wrapper that overrides only the pure virtuals (the
// shape of a probe or any other wrapping system). The contract is bitwise:
// values, iteration counts, converged flags and residual, and — end to
// end — the simulator's virtual time, work and trajectory.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "ode/brusselator.hpp"
#include "ode/newton.hpp"

namespace {

using namespace aiac;

/// Forwards the pure virtuals to `inner` and counts the per-component
/// evaluations; every batched entry point keeps its default. With
/// `record_diagonal` set it also logs every diagonal partial it returns,
/// so a test can see which Newton checks the derivative clamp caught.
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
    const double df = inner_.rhs_partial(j, k, t, window);
    if (record_diagonal && j == k) diagonal.emplace_back(j, df);
    return df;
  }
  void initial_state(std::span<double> y) const override {
    inner_.initial_state(y);
  }

  mutable std::size_t component_calls = 0;
  mutable std::size_t partial_calls = 0;
  bool record_diagonal = false;
  mutable std::vector<std::pair<std::size_t, double>> diagonal;

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

/// Frozen extended rows of components first-2 .. first+count+1 over `pts`
/// points: the initial state perturbed by `spread`, with every
/// out-of-domain row NaN so a kernel that reads one poisons its result.
std::vector<double> old_rows_for(const ode::Brusselator& sys,
                                 std::size_t first, std::size_t count,
                                 std::size_t pts, double spread,
                                 std::uint32_t seed) {
  std::vector<double> y0(sys.dimension());
  sys.initial_state(y0);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-spread, spread);
  std::vector<double> rows((count + 4) * pts);
  for (std::size_t slot = 0; slot < count + 4; ++slot) {
    const auto k = static_cast<std::ptrdiff_t>(first + slot) - 2;
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
  std::vector<double> row;  // count rows of pts points
};

/// One scalar_euler_rows call over [first, first + count); each row's
/// initial value is its center row's t = 0 entry.
RowRun run_rows(const ode::OdeSystem& sys, std::size_t first,
                std::size_t count, double dt,
                const std::vector<double>& old_rows, std::size_t pts,
                const ode::NewtonOptions& opts) {
  RowRun run;
  run.row.assign(count * pts, 0.0);
  for (std::size_t r = 0; r < count; ++r)
    run.row[r * pts] = old_rows[(r + 2) * pts];
  std::vector<double> window(sys.window_size());
  run.result =
      sys.scalar_euler_rows(first, count, dt, old_rows, run.row, opts, window);
  return run;
}

RowRun run_row(const ode::OdeSystem& sys, std::size_t j, double dt,
               const std::vector<double>& old_rows, std::size_t pts,
               const ode::NewtonOptions& opts) {
  return run_rows(sys, j, 1, dt, old_rows, pts, opts);
}

/// Row r of a range's old rows as the 5-row block a single-row call reads.
std::vector<double> rows_of(const std::vector<double>& old_rows,
                            std::size_t r, std::size_t pts) {
  const auto at = old_rows.begin() + static_cast<std::ptrdiff_t>(r * pts);
  return {at, at + static_cast<std::ptrdiff_t>(5 * pts)};
}

void expect_bitwise(const RowRun& fused, const RowRun& reference) {
  EXPECT_EQ(fused.result.iterations, reference.result.iterations);
  EXPECT_EQ(fused.result.all_converged, reference.result.all_converged);
  EXPECT_TRUE(same_bits(fused.result.residual, reference.result.residual))
      << fused.result.residual << " vs " << reference.result.residual;
  ASSERT_EQ(fused.row.size(), reference.row.size());
  for (std::size_t k = 0; k < fused.row.size(); ++k)
    EXPECT_TRUE(same_bits(fused.row[k], reference.row[k]))
        << "entry " << k << ": " << fused.row[k] << " vs "
        << reference.row[k];
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
        old_rows_for(bare, j, 1, kPts, spread, static_cast<std::uint32_t>(j));
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
  const auto old_rows = old_rows_for(bare, 4, 1, 9, 0.3, 11);
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
        old_rows_for(sys, j, 1, 13, 1.5, static_cast<std::uint32_t>(j));
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

// ---- Ranges and lockstep lane groups ------------------------------------

/// Every (first, count) sub-range of an N-point Brusselator: odd and even
/// first rows, full, partial and single-lane groups of both species, both
/// Dirichlet ends. The fused range must equal the default range bitwise,
/// and the default range its rows swept one at a time and folded.
void check_all_ranges(std::size_t grid_points, double dt,
                      const ode::NewtonOptions& opts, double spread) {
  const ode::Brusselator bare = make_bruss(grid_points);
  const Forwarding wrapped(bare);
  constexpr std::size_t kPts = 9;
  const std::size_t n = bare.dimension();
  for (std::size_t first = 0; first < n; ++first) {
    for (std::size_t count = 1; first + count <= n; ++count) {
      SCOPED_TRACE("N = " + std::to_string(grid_points) + ", first = " +
                   std::to_string(first) + ", count = " +
                   std::to_string(count));
      const auto old_rows =
          old_rows_for(bare, first, count, kPts, spread,
                       static_cast<std::uint32_t>(first * n + count));
      const RowRun fused =
          run_rows(bare, first, count, dt, old_rows, kPts, opts);
      const RowRun reference =
          run_rows(wrapped, first, count, dt, old_rows, kPts, opts);
      expect_bitwise(fused, reference);
      ode::ScalarRowResult folded;
      for (std::size_t r = 0; r < count; ++r) {
        const RowRun single = run_row(wrapped, first + r, dt,
                                      rows_of(old_rows, r, kPts), kPts, opts);
        ode::fold_row_result(folded, single.result);
        for (std::size_t step = 0; step < kPts; ++step)
          EXPECT_TRUE(
              same_bits(single.row[step], reference.row[r * kPts + step]));
      }
      EXPECT_EQ(folded.iterations, reference.result.iterations);
      EXPECT_EQ(folded.all_converged, reference.result.all_converged);
      EXPECT_TRUE(same_bits(folded.residual, reference.result.residual));
    }
  }
}

TEST(ScalarRowParity, EveryRangeMatchesTheDefaultPath) {
  for (const std::size_t n : {1u, 2u, 5u, 9u})
    check_all_ranges(n, 0.05, ode::NewtonOptions{}, 0.3);
}

TEST(ScalarRowParity, EveryRangeWithLargeStepsAndLooseIterates) {
  for (const std::size_t n : {1u, 2u, 5u, 9u})
    check_all_ranges(n, 0.8, ode::NewtonOptions{}, 1.5);
}

TEST(ScalarRowParity, EveryRangeUnderEdgeOptions) {
  ode::NewtonOptions zero_budget;
  zero_budget.max_iterations = 0;
  ode::NewtonOptions never_converges;
  never_converges.tolerance = -1.0;
  never_converges.max_iterations = 3;
  ode::NewtonOptions clamped;
  clamped.min_derivative = 50.0;
  clamped.max_iterations = 6;
  for (const std::size_t n : {2u, 5u}) {
    check_all_ranges(n, 0.05, zero_budget, 0.3);
    check_all_ranges(n, 0.05, never_converges, 0.3);
    check_all_ranges(n, 0.8, clamped, 1.5);
  }
}

/// Each row of a range alone through the default path.
std::vector<ode::ScalarRowResult> per_row_results(
    const ode::OdeSystem& sys, std::size_t first, std::size_t count,
    double dt, const std::vector<double>& old_rows, std::size_t pts,
    const ode::NewtonOptions& opts) {
  std::vector<ode::ScalarRowResult> results;
  for (std::size_t r = 0; r < count; ++r)
    results.push_back(
        run_row(sys, first + r, dt, rows_of(old_rows, r, pts), pts, opts)
            .result);
  return results;
}

TEST(ScalarRowParity, LanesThatFinishDifferentlyWithinOneGroup) {
  // N = 4 over [0, 8): one full u group (components 0, 2, 4, 6) and one
  // full v group (1, 3, 5, 7). Component 6 warm-starts from its own
  // converged row, so its lane passes the check at every step; component
  // 2 starts far from any root, so its lane iterates until the budget
  // ends it — in the same lockstep group.
  const ode::Brusselator bare = make_bruss(4);
  const Forwarding wrapped(bare);
  constexpr std::size_t kPts = 9;
  constexpr std::size_t kSteps = kPts - 1;
  const double dt = 0.05;
  auto old_rows = old_rows_for(bare, 0, 8, kPts, 0.3, 21);
  const RowRun solved =
      run_row(wrapped, 6, dt, rows_of(old_rows, 6, kPts), kPts, {});
  ASSERT_TRUE(solved.result.all_converged);
  std::copy(solved.row.begin(), solved.row.end(),
            old_rows.begin() + 8 * kPts);
  for (std::size_t step = 1; step < kPts; ++step)
    old_rows[4 * kPts + step] = 50.0;

  ode::NewtonOptions budget3;
  budget3.max_iterations = 3;
  ode::NewtonOptions zero_budget;
  zero_budget.max_iterations = 0;
  ode::NewtonOptions never_converges;
  never_converges.tolerance = -1.0;
  never_converges.max_iterations = 2;
  for (const ode::NewtonOptions& opts :
       {budget3, zero_budget, never_converges}) {
    SCOPED_TRACE("max_iterations = " + std::to_string(opts.max_iterations) +
                 ", tolerance = " + std::to_string(opts.tolerance));
    const auto rows = per_row_results(wrapped, 0, 8, dt, old_rows, kPts, opts);
    if (opts.tolerance >= 0.0) {
      EXPECT_TRUE(rows[6].all_converged);
      EXPECT_EQ(rows[6].iterations, 0u);
      EXPECT_FALSE(rows[2].all_converged);
      EXPECT_EQ(rows[2].iterations, kSteps * opts.max_iterations);
    } else {
      for (const auto& row : rows) {
        EXPECT_FALSE(row.all_converged);
        EXPECT_EQ(row.iterations, kSteps * opts.max_iterations);
      }
    }
    expect_bitwise(run_rows(bare, 0, 8, dt, old_rows, kPts, opts),
                   run_rows(wrapped, 0, 8, dt, old_rows, kPts, opts));
  }
}

TEST(ScalarRowParity, DerivativeClampInOneLaneOfAGroup) {
  // A v row's diagonal partial -u_i^2 - 2c depends only on its frozen
  // partner u_i, so the clamp is steered per lane: with every u row at
  // 2.0 but component 2 (the partner of v component 3) near zero, only
  // component 3's checks see |g'| < min_derivative in the v group.
  const ode::Brusselator bare = make_bruss(4);
  Forwarding wrapped(bare);
  constexpr std::size_t kPts = 9;
  const double dt = 0.5;
  auto old_rows = old_rows_for(bare, 0, 8, kPts, 0.05, 5);
  for (const std::size_t u_component : {0u, 2u, 4u, 6u})
    for (std::size_t step = 0; step < kPts; ++step)
      old_rows[(u_component + 2) * kPts + step] =
          u_component == 2 ? 0.05 : 2.0;
  ode::NewtonOptions opts;
  opts.min_derivative = 2.0;

  wrapped.record_diagonal = true;
  const RowRun reference = run_rows(wrapped, 0, 8, dt, old_rows, kPts, opts);
  wrapped.record_diagonal = false;
  std::vector<std::size_t> checks(8), clamped(8);
  for (const auto& [j, df] : wrapped.diagonal) {
    ++checks[j];
    if (std::abs(1.0 - dt * df) < opts.min_derivative) ++clamped[j];
  }
  EXPECT_GT(checks[3], 0u);
  EXPECT_EQ(clamped[3], checks[3]);
  for (const std::size_t j : {1u, 5u, 7u}) EXPECT_EQ(clamped[j], 0u) << j;
  // The clamped lane contracts linearly while its neighbors' linear
  // equations solve in one step: the lanes also finish apart.
  const auto rows = per_row_results(wrapped, 0, 8, dt, old_rows, kPts, opts);
  EXPECT_GT(rows[3].iterations, rows[1].iterations);

  expect_bitwise(run_rows(bare, 0, 8, dt, old_rows, kPts, opts), reference);
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
    const auto old_rows = old_rows_for(sys, j, 1, kPts, 0.3, 7);
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
  EXPECT_THROW(bare.scalar_euler_rows(0, 1, 0.1, old_rows, row, opts, window),
               std::invalid_argument);
  EXPECT_THROW(
      wrapped.scalar_euler_rows(0, 1, 0.1, old_rows, row, opts, window),
      std::invalid_argument);
  row.resize(4);
  EXPECT_THROW(bare.scalar_euler_rows(8, 1, 0.1, old_rows, row, opts, window),
               std::out_of_range);
  EXPECT_THROW(bare.scalar_euler_rows(7, 2, 0.1, old_rows, row, opts, window),
               std::out_of_range);
  // A range of five rows needs five rows of output and nine of input.
  std::vector<double> rows(5 * 4, 1.0);
  std::vector<double> short_old(8 * 4, 1.0);
  EXPECT_THROW(
      bare.scalar_euler_rows(0, 5, 0.1, short_old, rows, opts, window),
      std::invalid_argument);
  EXPECT_THROW(
      wrapped.scalar_euler_rows(0, 5, 0.1, short_old, rows, opts, window),
      std::invalid_argument);
  // An empty range is a no-op.
  const auto empty =
      bare.scalar_euler_rows(3, 0, 0.1, {}, std::span<double>{}, opts, window);
  EXPECT_EQ(empty.iterations, 0u);
  EXPECT_TRUE(empty.all_converged);
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
