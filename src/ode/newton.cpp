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

/// Assembles A = I - dt J into the workspace Jacobian and factors it in
/// place. One batched OdeSystem::jacobian_band_range call over the block
/// (ws.window holds the extended state for this iterate); the band slot
/// layout of each row (d in [-s, s] at slot d + s) coincides with the
/// band-storage slot layout for kl = ku = s, so rows are written at full
/// stride. Slots whose column falls outside the block are band-storage
/// padding for edge rows — writable, never read by factor/solve — so no
/// per-slot range check is needed.
void assemble_and_factor(const OdeSystem& system, std::size_t first,
                         std::size_t nb, double t_next, double dt,
                         NewtonWorkspace& ws) {
  const std::size_t s = system.stencil_halfwidth();
  const std::size_t width = 2 * s + 1;
  ws.jac.reshape(nb, s, s);
  system.jacobian_band_range(first, nb, t_next, ws.window, ws.band);
  double* data = ws.jac.band_data().data();
  const double* band = ws.band.data();
  for (std::size_t r = 0; r < nb; ++r)
    for (std::size_t slot = 0; slot < width; ++slot)
      data[r * width + slot] =
          (slot == s ? 1.0 : 0.0) - dt * band[r * width + slot];
  linalg::banded_lu_factor_in_place(ws.jac);
  ++ws.factorizations;
  ws.jac_age = 0;
  ws.jac_rows = nb;
  ws.jac_dt = dt;
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

  const std::size_t width = 2 * s + 1;
  // Block-path buffer roles: `window` is the extended state y_ext of the
  // batched range calls (window of row r = window[r .. r+2s]); `band`
  // holds all nb Jacobian band rows. Resizes are no-ops once warm.
  if (ws.rhs.size() != nb) ws.rhs.resize(nb);
  if (ws.window.size() != nb + 2 * s) ws.window.resize(nb + 2 * s);
  if (ws.band.size() != nb * width) ws.band.resize(nb * width);

  // Ghost slots of the extended state are fixed for the whole solve; the
  // out-of-domain ones stay zero (never read by a correct system).
  const std::size_t dim = system.dimension();
  for (std::size_t g = 0; g < s; ++g) {
    ws.window[g] = first + g >= s ? ghost_left[g] : 0.0;
    ws.window[s + nb + g] =
        first + nb + g < dim ? ghost_right[g] : 0.0;
  }

  const bool chord = opts.jacobian_reuse != JacobianReuse::kFresh;
  // A held factorization only survives into this call in the across-steps
  // mode, and only when it was built for this block shape and step size.
  if (opts.jacobian_reuse != JacobianReuse::kChordAcrossSteps ||
      ws.jac_rows != nb || ws.jac_dt != dt)
    ws.jac_valid = false;

  BlockSolveResult result;
  const std::size_t factorizations_at_entry = ws.factorizations;
  double prev_update = 0.0;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    // Residual F(w) = w - y_prev - dt f(t_next, w); checked before any
    // factorization so a converged warm start costs one evaluation only.
    // In chord mode this true-residual check is also what keeps the
    // stopping decision sound despite the approximate Jacobian.
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
    if (!ws.jac_valid || ws.jac_age >= opts.chord_max_age)
      assemble_and_factor(system, first, nb, t_next, dt, ws);
    ws.jac_valid = true;
    linalg::banded_lu_solve_in_place(ws.jac, ws.rhs);
    ++ws.jac_age;
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
    // Chord refresh policy: when the reused factorization no longer
    // contracts the update by chord_refresh_rate per iteration, rebuild at
    // the next iteration. Fresh mode refactorizes unconditionally.
    if (!chord || (prev_update > 0.0 &&
                   update_norm > opts.chord_refresh_rate * prev_update))
      ws.jac_valid = false;
    prev_update = update_norm;
  }
  result.factorizations = ws.factorizations - factorizations_at_entry;
  // Never carry a factorization out of a failed solve or out of a mode
  // that did not ask for cross-call reuse.
  if (!result.converged ||
      opts.jacobian_reuse != JacobianReuse::kChordAcrossSteps)
    ws.jac_valid = false;
  return result;
}

BlockSolveResult block_implicit_euler_step(
    const OdeSystem& system, std::size_t first, std::span<const double> y_prev,
    std::span<double> y_next, std::span<const double> ghost_left,
    std::span<const double> ghost_right, double t_next, double dt,
    const NewtonOptions& opts) {
  // Legacy entry point: a throwaway workspace per call. Still faster than
  // the historical implementation (batched assembly, in-place LU), but the
  // hot path is the workspace overload; kChordAcrossSteps degrades to
  // kChord here because nothing survives the call.
  NewtonWorkspace ws;
  return block_implicit_euler_step(system, first, y_prev, y_next, ghost_left,
                                   ghost_right, t_next, dt, opts, ws);
}

}  // namespace aiac::ode
