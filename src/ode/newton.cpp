#include "ode/newton.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/banded_matrix.hpp"

namespace aiac::ode {

ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts) {
  const std::size_t s = system.stencil_halfwidth();
  if (window.size() != 2 * s + 1)
    throw std::invalid_argument("scalar solve: wrong window size");
  std::vector<double> w(window.begin(), window.end());
  return scalar_newton(w[s], y_prev, dt, opts,
                       window_evaluator(system, j, t_next, w));
}

ScalarSolveResult scalar_implicit_euler_solve(const OdeSystem& system,
                                              std::size_t j, double y_prev,
                                              std::span<const double> window,
                                              double t_next, double dt,
                                              const NewtonOptions& opts,
                                              NewtonWorkspace& workspace) {
  const std::size_t s = system.stencil_halfwidth();
  if (window.size() != 2 * s + 1)
    throw std::invalid_argument("scalar solve: wrong window size");
  // assign() reuses the workspace vector's capacity: allocation-free once
  // warm, which is the point of this overload.
  workspace.window.assign(window.begin(), window.end());
  return scalar_newton(window[s], y_prev, dt, opts,
                       window_evaluator(system, j, t_next, workspace.window));
}

namespace {

/// Assembles A = I - dt J into the workspace Jacobian, then factors it and
/// solves for the Newton update in ws.rhs in one fused pass. One batched
/// OdeSystem::jacobian_band_range call over the block (ws.window holds the
/// extended state for this iterate) writes J straight into the band
/// storage: the band slot layout of each row (d in [-s, s] at slot d + s)
/// coincides with the band-storage slot layout for kl = ku = s, and the
/// range call writes every slot of every row. A = I - dt J is then formed
/// in place. Slots whose column falls outside the block are band-storage
/// padding for edge rows — writable, never read by factor/solve — so no
/// per-slot range check is needed.
void assemble_factor_solve(const OdeSystem& system, std::size_t first,
                           std::size_t nb, double t_next, double dt,
                           NewtonWorkspace& ws) {
  const std::size_t s = system.stencil_halfwidth();
  const std::size_t width = 2 * s + 1;
  ws.jac.reshape(nb, s, s);
  const std::span<double> band = ws.jac.band_data();
  system.jacobian_band_range(first, nb, t_next, ws.window, band);
  double* data = band.data();
  for (std::size_t r = 0; r < nb; ++r)
    for (std::size_t slot = 0; slot < width; ++slot)
      data[r * width + slot] =
          (slot == s ? 1.0 : 0.0) - dt * data[r * width + slot];
  linalg::banded_lu_factor_solve_in_place(ws.jac, ws.rhs);
}

}  // namespace

BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts, NewtonWorkspace& ws) {
  const std::size_t nb = y_next.size();
  const std::size_t s = system.stencil_halfwidth();
  if (y_prev.size() != nb)
    throw std::invalid_argument("block step: y_prev size mismatch");
  if (first + nb > system.dimension())
    throw std::invalid_argument("block step: range exceeds dimension");
  if ((first > 0 && ghost_left.size() < s) ||
      (first + nb < system.dimension() && ghost_right.size() < s))
    throw std::invalid_argument("block step: ghost spans too small");

  // Block-path buffer roles: `window` is the extended state y_ext of the
  // batched range calls (window of row r = window[r .. r+2s]). Resizes are
  // no-ops once warm.
  if (ws.rhs.size() != nb) ws.rhs.resize(nb);
  if (ws.window.size() != nb + 2 * s) ws.window.resize(nb + 2 * s);

  // Ghost slots of the extended state are fixed for the whole solve; the
  // out-of-domain ones stay zero (never read by a correct system).
  const std::size_t dim = system.dimension();
  for (std::size_t g = 0; g < s; ++g) {
    ws.window[g] = first + g >= s ? ghost_left[g] : 0.0;
    ws.window[s + nb + g] =
        first + nb + g < dim ? ghost_right[g] : 0.0;
  }

  BlockSolveResult result;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    // Residual F(w) = w - y_prev - dt f(t_next, w); checked before any
    // factorization so a converged warm start costs one evaluation only.
    std::copy(y_next.begin(), y_next.end(),
              ws.window.begin() + static_cast<std::ptrdiff_t>(s));
    system.rhs_range(first, nb, t_next, ws.window, ws.rhs);
    double residual_norm = 0.0;
    for (std::size_t r = 0; r < nb; ++r) {
      ws.rhs[r] = -(y_next[r] - y_prev[r] - dt * ws.rhs[r]);
      residual_norm = std::max(residual_norm, std::abs(ws.rhs[r]));
    }
    if (residual_norm <= opts.tolerance) {
      result.converged = true;
      result.skipped_by_check = it == 0;
      break;
    }
    assemble_factor_solve(system, first, nb, t_next, dt, ws);
    double update_norm = 0.0;
    for (std::size_t r = 0; r < nb; ++r) {
      y_next[r] += ws.rhs[r];
      update_norm = std::max(update_norm, std::abs(ws.rhs[r]));
    }
    ++result.newton_iterations;
    result.update_norm = update_norm;
    if (update_norm <= opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts) {
  // Legacy entry point: a throwaway workspace per call. Still faster than
  // the historical implementation (batched assembly, in-place LU), but the
  // hot path is the workspace overload.
  NewtonWorkspace ws;
  return block_implicit_euler_step(system, first, y_prev, y_next, ghost_left,
                                   ghost_right, t_next, dt, opts, ws);
}

}  // namespace aiac::ode
