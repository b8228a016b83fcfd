// Newton solvers for the implicit Euler stage (paper §5.1: "use the
// implicit Euler algorithm to approximate the derivative, use the Newton
// algorithm to solve the resulting nonlinear system").
//
// Two granularities are provided, matching the two readings of the
// paper's `Solve`:
//  * scalar: one nonlinear equation per component per time step, all other
//    components frozen at the previous outer iterate (the literal
//    Algorithm 1 loop);
//  * block: one banded Newton solve per time step over a processor's whole
//    local block, with only the *ghost* components frozen (faster outer
//    convergence; the default in this codebase).
//
// Both report the Newton iteration counts they consumed — this is the work
// measure the virtual-time simulation charges, and its decline as a
// component's trajectory converges is exactly the evolving workload the
// residual-driven load balancing exploits (paper §2).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "linalg/banded_matrix.hpp"
#include "ode/ode_system.hpp"

namespace aiac::ode {

struct NewtonOptions {
  double tolerance = 1e-10;      // on the Newton update max-norm
  std::size_t max_iterations = 25;
  /// Safety for the scalar solve when |g'| is tiny.
  double min_derivative = 1e-14;
  /// Relative cost of the initial converged-check (one residual
  /// evaluation) versus a full Newton iteration (assembly + banded
  /// solve), per component. Warm starts that already satisfy the step
  /// equation cost only this much — the work-evolution effect the
  /// residual-driven load balancing exploits.
  double check_cost = 0.1;
  /// Flat cost (work units per *time step*, not per component) of the
  /// unchanged-inputs fast path in WaveformBlock: when a step's ghost
  /// inputs and the previous step's values are bitwise identical to the
  /// previous outer iterate and that iterate solved the step to
  /// tolerance, the step is skipped after O(stencil) comparisons.
  double step_skip_cost = 0.1;
};

/// Reusable storage for the implicit-Euler Newton solvers. One workspace
/// per solving context (a WaveformBlock owns one): the banded Jacobian,
/// its in-place factorization, the rhs and stencil-window buffers all live
/// here, so a steady-state solve performs zero heap allocations.
///
/// The members are owned by the solver functions; callers only construct
/// and pass a workspace. Reusing one workspace across different systems or
/// block sizes is safe: every Newton iteration assembles and factors its
/// Jacobian afresh, and the buffers resize to the block on entry.
struct NewtonWorkspace {
  linalg::BandedMatrix jac;   // assembled, then factored in place
  std::vector<double> rhs;
  std::vector<double> window;
};

struct ScalarSolveResult {
  double value = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// f_j and its diagonal partial d f_j / d y_j at one scalar Newton iterate.
struct ScalarEval {
  double f = 0.0;
  double df = 0.0;
};

/// The one scalar Newton iteration behind every scalar entry point: solves
/// g(w) = w - y_prev - dt * f_j(w) = 0 starting from `guess`, where
/// `eval(w)` returns ScalarEval at the iterate w (all other components
/// frozen inside the evaluator). The convergence test on the Newton update
/// precedes applying it, so a converged warm start costs one evaluation and
/// zero iterations (see NewtonOptions::check_cost); the budget allows
/// max_iterations updates.
template <typename Eval>
ScalarSolveResult scalar_newton(double guess, double y_prev, double dt,
                                const NewtonOptions& opts, Eval&& eval) {
  ScalarSolveResult result;
  result.value = guess;
  for (std::size_t it = 0; it <= opts.max_iterations; ++it) {
    const ScalarEval e = eval(result.value);
    const double g = result.value - y_prev - dt * e.f;
    double gp = 1.0 - dt * e.df;
    if (std::abs(gp) < opts.min_derivative)
      gp = gp < 0 ? -opts.min_derivative : opts.min_derivative;
    const double delta = g / gp;
    if (std::abs(delta) <= opts.tolerance) {
      // Converged (possibly on the initial check, at zero iterations);
      // apply the final tiny correction.
      result.value -= delta;
      result.converged = true;
      break;
    }
    if (it == opts.max_iterations) break;  // budget exhausted
    result.value -= delta;
    ++result.iterations;
  }
  return result;
}

/// Row driver over scalar_newton: one component's scalar Jacobi sweep over
/// the time window (the inner `for t` of paper Algorithm 1). For step =
/// 1 .. new_row.size() - 1 it solves from the warm start old_center[step]
/// with y_prev = new_row[step - 1], writes new_row[step], and folds the
/// per-step results. `eval_at(step, t_next)` returns the evaluator of that
/// step; it reads the frozen neighbors and must not touch new_row.
template <typename EvalAt>
ScalarRowResult scalar_newton_row(std::span<const double> old_center,
                                  std::span<double> new_row, double dt,
                                  const NewtonOptions& opts,
                                  EvalAt&& eval_at) {
  ScalarRowResult row;
  for (std::size_t step = 1; step < new_row.size(); ++step) {
    const double t_next = dt * static_cast<double>(step);
    const double prev = old_center[step];
    const ScalarSolveResult solve = scalar_newton(
        prev, new_row[step - 1], dt, opts, eval_at(step, t_next));
    new_row[step] = solve.value;
    const double diff = std::abs(solve.value - prev);
    if (diff > row.residual) row.residual = diff;
    row.iterations += solve.iterations;
    row.all_converged &= solve.converged;
  }
  return row;
}

/// Evaluator over a materialized stencil window: writes the iterate into
/// the center slot and calls the per-component virtuals. This is the
/// reference arithmetic every OdeSystem::scalar_euler_rows override must
/// reproduce bit for bit.
inline auto window_evaluator(const OdeSystem& system, std::size_t j,
                             double t, std::span<double> window) {
  return [&system, j, t, window](double w) {
    window[window.size() / 2] = w;
    return ScalarEval{system.rhs_component(j, t, window),
                      system.rhs_partial(j, j, t, window)};
  };
}

/// Lane types of the lockstep scalar Newton core: four independent scalar
/// problems held as two 16-byte vectors of doubles (the GCC/Clang vector
/// extension, so SSE2 on x86-64 without any -march flag). Vector
/// arithmetic is elementwise IEEE, and repro_ode builds with
/// -ffp-contract=off, so every lane rounds exactly like the scalar
/// expression it is spelled as. Selects are bitwise and/or on masks, so a
/// lane's outcome never becomes a branch.
namespace lanes {

inline constexpr std::size_t kWidth = 4;

using Pair [[gnu::vector_size(16)]] = double;
/// The mask type a Pair comparison yields: per element all ones or zero.
using PairBits = decltype(Pair{} < Pair{});

/// Four integer lanes: comparison masks, or per-lane counters.
struct Ints {
  PairBits lo{};
  PairBits hi{};
  auto operator[](std::size_t k) const { return k < 2 ? lo[k] : hi[k - 2]; }
};
inline Ints operator&(Ints a, Ints b) { return {a.lo & b.lo, a.hi & b.hi}; }
inline Ints operator|(Ints a, Ints b) { return {a.lo | b.lo, a.hi | b.hi}; }
inline Ints operator~(Ints a) { return {~a.lo, ~a.hi}; }
inline Ints operator+(Ints a, Ints b) { return {a.lo + b.lo, a.hi + b.hi}; }
inline bool any(Ints m) {
  const PairBits folded = m.lo | m.hi;
  return (folded[0] | folded[1]) != 0;
}
/// Adds one to every lane whose mask is set (a set mask is -1).
inline Ints count_set(Ints counter, Ints mask) {
  return {counter.lo - mask.lo, counter.hi - mask.hi};
}

/// Four double lanes. Converts implicitly from a scalar (splat), so lane
/// expressions read exactly like their scalar originals.
struct Lanes {
  Pair lo{};
  Pair hi{};
  Lanes() = default;
  Lanes(Pair l, Pair h) : lo(l), hi(h) {}
  Lanes(double x) : lo(Pair{x, x}), hi(Pair{x, x}) {}  // implicit: splat
  Lanes(double a, double b, double c, double d)
      : lo(Pair{a, b}), hi(Pair{c, d}) {}
  double operator[](std::size_t k) const { return k < 2 ? lo[k] : hi[k - 2]; }
};
inline Lanes operator+(Lanes a, Lanes b) { return {a.lo + b.lo, a.hi + b.hi}; }
inline Lanes operator-(Lanes a, Lanes b) { return {a.lo - b.lo, a.hi - b.hi}; }
inline Lanes operator*(Lanes a, Lanes b) { return {a.lo * b.lo, a.hi * b.hi}; }
inline Lanes operator/(Lanes a, Lanes b) { return {a.lo / b.lo, a.hi / b.hi}; }
inline Lanes operator-(Lanes a) { return {-a.lo, -a.hi}; }
inline Ints operator<(Lanes a, Lanes b) { return {a.lo < b.lo, a.hi < b.hi}; }
inline Ints operator<=(Lanes a, Lanes b) {
  return {a.lo <= b.lo, a.hi <= b.hi};
}
inline Ints operator>(Lanes a, Lanes b) { return {a.lo > b.lo, a.hi > b.hi}; }

/// Per lane: `mask ? a : b`, bitwise (no branch, no vector ?:).
inline Lanes select(Ints mask, Lanes a, Lanes b) {
  const auto pick = [](PairBits m, Pair x, Pair y) {
    return std::bit_cast<Pair>((m & std::bit_cast<PairBits>(x)) |
                               (~m & std::bit_cast<PairBits>(y)));
  };
  return {pick(mask.lo, a.lo, b.lo), pick(mask.hi, a.hi, b.hi)};
}
/// Per lane std::abs: the sign bit cleared (NaN stays NaN).
inline Lanes abs(Lanes x) {
  const PairBits magnitude = ~std::bit_cast<PairBits>(Pair{-0.0, -0.0});
  return {std::bit_cast<Pair>(std::bit_cast<PairBits>(x.lo) & magnitude),
          std::bit_cast<Pair>(std::bit_cast<PairBits>(x.hi) & magnitude)};
}

/// f and its diagonal partial at four iterates (ScalarEval per lane).
struct Eval {
  Lanes f;
  Lanes df;
};

}  // namespace lanes

/// Four scalar_newton solves in lockstep.
struct LaneSolveResult {
  lanes::Lanes value;
  lanes::Ints iterations;  // per lane, as ScalarSolveResult::iterations
  lanes::Ints converged;   // per lane mask
};

/// scalar_newton on four independent lanes at once, one iteration at a
/// time. Every lane performs exactly scalar_newton's operations in its
/// order — the check before the update, the min_derivative clamp (sign
/// taken from `gp < 0`), `value -= delta` on convergence and no update
/// once the budget is exhausted — so each lane's value, iteration count
/// and flag are bitwise those of scalar_newton on that lane's problem.
/// Lanes that have finished keep evaluating in lockstep (their results
/// are masked off); the loop ends when no lane is still iterating.
/// `eval(lanes::Lanes)` returns lanes::Eval at the four iterates.
template <typename Eval>
LaneSolveResult scalar_newton_lanes(lanes::Lanes guess, lanes::Lanes y_prev,
                                    double dt, const NewtonOptions& opts,
                                    Eval&& eval) {
  using lanes::Ints;
  using lanes::Lanes;
  LaneSolveResult result;
  result.value = guess;
  Ints iterating = ~Ints{};
  const Lanes min_derivative = opts.min_derivative;
  const Lanes clamp_low = -opts.min_derivative;
  for (std::size_t it = 0;; ++it) {
    const lanes::Eval e = eval(result.value);
    const Lanes g = result.value - y_prev - dt * e.f;
    Lanes gp = 1.0 - dt * e.df;
    gp = lanes::select(lanes::abs(gp) < min_derivative,
                       lanes::select(gp < 0.0, clamp_low, min_derivative),
                       gp);
    const Lanes delta = g / gp;
    const Ints done = iterating & (lanes::abs(delta) <= opts.tolerance);
    result.converged = result.converged | done;
    // Converged lanes apply the final correction; at the budget's end
    // the still-iterating lanes stop without one.
    const Ints update = it == opts.max_iterations ? done : iterating;
    result.value = lanes::select(update, result.value - delta, result.value);
    if (it == opts.max_iterations) break;  // budget exhausted
    iterating = iterating & ~done;
    result.iterations = lanes::count_set(result.iterations, iterating);
    if (!lanes::any(iterating)) break;
  }
  return result;
}

/// scalar_newton_row on up to four rows in lockstep. Lane k sweeps the
/// row whose warm starts are old_center[k][0 .. pts) into
/// new_rows[k][0 .. pts) (new_rows[k][0] is the initial value), exactly as
/// scalar_newton_row would. Only lanes k < live are real rows: the others
/// must repeat lane 0's pointers — they compute lane 0's problem again
/// and are neither stored nor folded. `eval_at(step)` returns the
/// evaluator of that step (a callable from lanes::Lanes to lanes::Eval);
/// it reads the frozen neighbors and must not touch new_rows. Returns the
/// live rows' results folded as fold_row_result does.
template <typename EvalAt>
ScalarRowResult scalar_newton_lane_rows(
    const std::array<const double*, lanes::kWidth>& old_center,
    const std::array<double*, lanes::kWidth>& new_rows, std::size_t live,
    std::size_t pts, double dt, const NewtonOptions& opts,
    EvalAt&& eval_at) {
  using lanes::Ints;
  using lanes::Lanes;
  const auto column = [](const auto& rows, std::size_t step) {
    return Lanes(rows[0][step], rows[1][step], rows[2][step], rows[3][step]);
  };
  Lanes y_prev = column(new_rows, 0);
  Lanes residual = 0.0;
  Ints iterations;
  Ints all_converged = ~Ints{};
  for (std::size_t step = 1; step < pts; ++step) {
    const Lanes prev = column(old_center, step);
    const LaneSolveResult solve =
        scalar_newton_lanes(prev, y_prev, dt, opts, eval_at(step));
    new_rows[0][step] = solve.value.lo[0];
    if (live > 1) new_rows[1][step] = solve.value.lo[1];
    if (live > 2) new_rows[2][step] = solve.value.hi[0];
    if (live > 3) new_rows[3][step] = solve.value.hi[1];
    const Lanes diff = lanes::abs(solve.value - prev);
    residual = lanes::select(diff > residual, diff, residual);
    iterations = iterations + solve.iterations;
    all_converged = all_converged & solve.converged;
    y_prev = solve.value;
  }
  ScalarRowResult folded;
  for (std::size_t k = 0; k < std::min(live, lanes::kWidth); ++k)
    fold_row_result(folded,
                    {static_cast<std::size_t>(iterations[k]),
                     all_converged[k] != 0, residual[k]});
  return folded;
}

/// Solves w = y_prev + dt * f_j(t_next, y | y_j := w) for component j.
/// `window` holds the stencil neighborhood of j at t_next from the frozen
/// iterate; its center entry provides the initial guess and is logically
/// replaced by the Newton iterate during the solve (the input span is not
/// modified).
ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts = {});

/// Workspace overload: the window copy the scalar solve mutates lives in
/// `workspace` instead of a per-call vector — allocation-free once warm.
ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts,
                                              NewtonWorkspace& workspace);

struct BlockSolveResult {
  std::size_t newton_iterations = 0;  // banded solves performed
  bool converged = false;
  double update_norm = 0.0;  // last Newton update max-norm
  /// True when the initial guess already satisfied the step equation and
  /// the solve was skipped after the residual check.
  bool skipped_by_check = false;
};

/// Advances components [first, first + y_next.size()) one implicit Euler
/// step with a banded Newton iteration.
///
/// `y_prev`  : block values at the previous time step.
/// `y_next`  : in: initial guess (typically the previous outer iterate at
///             t_next); out: the solution.
/// `ghost_left`/`ghost_right`: the `stencil_halfwidth()` components just
/// outside the block on each side, at t_next, from the frozen iterate.
/// They are only read when the block does not touch the corresponding
/// domain boundary; pass spans of the right size regardless.
BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts = {});

/// Workspace overload — the hot path. All solver storage (Jacobian band,
/// factorization, rhs, stencil window) lives in `workspace` and is reused
/// across calls: after the first call at a given block size the solve
/// performs zero heap allocations. Residual evaluation and Jacobian assembly
/// go through the batched OdeSystem::rhs_range / jacobian_band_range
/// entry points (one virtual call per block, not per component).
BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts, NewtonWorkspace& workspace);

}  // namespace aiac::ode
