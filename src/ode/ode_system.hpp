// Componentwise ODE system interface.
//
// The AIAC engine distributes the *components* of y' = f(t, y) over
// processors (paper eq. (2)); all it needs from a problem is per-component
// evaluation of f and of the Jacobian entries within a banded stencil.
// Components couple only within `stencil_halfwidth()` indices of each
// other, which is what makes the linear processor chain with two ghost
// components per side (paper §5) correct.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aiac::ode {

struct NewtonOptions;  // newton.hpp

/// Outcome of a scalar implicit-Euler sweep over the time window, of one
/// component or folded over a range of them (OdeSystem::scalar_euler_rows).
struct ScalarRowResult {
  std::size_t iterations = 0;  // Newton iterations summed over the steps
  bool all_converged = true;   // every step met the tolerance
  double residual = 0.0;       // max over the steps of |new - old|
};

/// Folds one row's result into a range total: iterations summed, flags
/// and-ed, residual max (a NaN row residual never replaces the total, as
/// a NaN step never replaces a row's). Order-independent.
inline void fold_row_result(ScalarRowResult& total,
                            const ScalarRowResult& row) {
  total.iterations += row.iterations;
  total.all_converged &= row.all_converged;
  if (row.residual > total.residual) total.residual = row.residual;
}

/// Fixed-size view of the components a single f_j may read:
/// window[stencil + d] holds y_{j+d} for d in [-stencil, +stencil].
/// Entries that would fall outside [0, dimension) are never read; the
/// system substitutes its boundary conditions internally.
class OdeSystem {
 public:
  virtual ~OdeSystem() = default;

  /// Number of components of y.
  virtual std::size_t dimension() const noexcept = 0;

  /// Coupling halfwidth in component-index space.
  virtual std::size_t stencil_halfwidth() const noexcept = 0;

  /// f_j(t, y) given the stencil window around j.
  virtual double rhs_component(std::size_t j, double t,
                               std::span<const double> window) const = 0;

  /// d f_j / d y_k for |k - j| <= stencil_halfwidth(). k indexes globally.
  virtual double rhs_partial(std::size_t j, std::size_t k, double t,
                             std::span<const double> window) const = 0;

  /// Whole banded Jacobian row of f_j in one call:
  /// band[stencil + d] = d f_j / d y_{j+d} for d in [-stencil, +stencil],
  /// zero for offsets falling outside [0, dimension()). `band` has size
  /// window_size(). The default loops rhs_partial (2s+1 virtual calls);
  /// concrete systems override it with one fused evaluation — the batched
  /// assembly the banded Newton kernel uses, where the per-entry virtual
  /// dispatch otherwise dominates Jacobian cost.
  virtual void jacobian_band_row(std::size_t j, double t,
                                 std::span<const double> window,
                                 std::span<double> band) const;

  /// Batched RHS over the contiguous component range [first, first +
  /// count). `y_ext` holds count + 2*stencil values laid out so that the
  /// window of local row r is y_ext[r .. r + 2*stencil]; slots whose
  /// global index falls outside [0, dimension()) must be zero (a correct
  /// system never reads them). Writes f_{first+r} into out[r].
  ///
  /// The default walks rhs_component over sliding sub-spans of y_ext —
  /// one virtual call per component. Systems on the solver hot path
  /// override it with a single fused loop: the block Newton kernel
  /// evaluates the residual through this entry point every iteration, and
  /// per-component virtual dispatch is most of its cost.
  virtual void rhs_range(std::size_t first, std::size_t count, double t,
                         std::span<const double> y_ext,
                         std::span<double> out) const;

  /// Batched Jacobian band rows over [first, first + count): row r's band
  /// lands at band_rows[r * window_size() ..], with the same slot
  /// convention as jacobian_band_row. `y_ext` as in rhs_range. Every slot
  /// of every row must be written: the block Newton kernel assembles
  /// straight into storage that still holds the previous factors. The
  /// default loops jacobian_band_row.
  virtual void jacobian_band_range(std::size_t first, std::size_t count,
                                   double t, std::span<const double> y_ext,
                                   std::span<double> band_rows) const;

  /// Scalar Jacobi sweep of the components [first, first + count) over
  /// the whole time window: the paper's Algorithm 1 loop, one scalar
  /// implicit-Euler Newton solve per component and step (newton.hpp
  /// scalar_newton_row). `old_rows` holds the frozen previous iterate of
  /// components first - s .. first + count - 1 + s, count + 2s rows of
  /// pts points each laid out as rhs_range's y_ext (extended row r + s is
  /// component first + r, the warm start); rows outside [0, dimension())
  /// are present but never read. `new_rows` holds the count owned rows
  /// (pts = new_rows.size() / count): column 0 is the initial value,
  /// columns 1.. are written. `window` is window_size() doubles of
  /// scratch. Returns the rows' results folded by fold_row_result.
  ///
  /// Every neighbor is read from old_rows, so the rows are independent:
  /// an override may sweep them in any order or together. The default
  /// sweeps one row at a time, staging each step's window into `window`
  /// and evaluating through rhs_component / rhs_partial, so a wrapping
  /// system that overrides only the per-component virtuals sees (and
  /// counts) every call. Overrides fuse the evaluation and must be
  /// bitwise equal to the default: same values, iteration count, flag and
  /// residual (DESIGN.md §10).
  virtual ScalarRowResult scalar_euler_rows(std::size_t first,
                                            std::size_t count, double dt,
                                            std::span<const double> old_rows,
                                            std::span<double> new_rows,
                                            const NewtonOptions& opts,
                                            std::span<double> window) const;

  /// Initial condition y(0) into `y` (size dimension()).
  virtual void initial_state(std::span<double> y) const = 0;

  /// Full right-hand side; default loops rhs_component over a sliding
  /// window. `y` and `dydt` have size dimension().
  virtual void rhs_full(double t, std::span<const double> y,
                        std::span<double> dydt) const;

  /// Window width = 2*stencil_halfwidth() + 1.
  std::size_t window_size() const noexcept {
    return 2 * stencil_halfwidth() + 1;
  }

  /// Copies the window around component j from a full state vector,
  /// zero-filling out-of-range slots (which rhs_component never reads).
  void extract_window(std::span<const double> y, std::size_t j,
                      std::span<double> window) const;

 protected:
  /// Shape checks shared by scalar_euler_rows implementations; returns
  /// pts (0 when count is 0). Throws std::out_of_range when the range
  /// leaves [0, dimension()) and std::invalid_argument on a size mismatch.
  std::size_t scalar_rows_points(std::size_t first, std::size_t count,
                                 std::span<const double> old_rows,
                                 std::span<const double> new_rows,
                                 std::span<const double> window) const;
};

}  // namespace aiac::ode
