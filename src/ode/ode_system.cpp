#include "ode/ode_system.hpp"

#include <stdexcept>

#include "ode/newton.hpp"

namespace aiac::ode {

void OdeSystem::extract_window(std::span<const double> y, std::size_t j,
                               std::span<double> window) const {
  const std::size_t s = stencil_halfwidth();
  if (window.size() != 2 * s + 1)
    throw std::invalid_argument("extract_window: wrong window size");
  const std::size_t n = dimension();
  for (std::size_t slot = 0; slot < window.size(); ++slot) {
    const std::ptrdiff_t idx =
        static_cast<std::ptrdiff_t>(j) + static_cast<std::ptrdiff_t>(slot) -
        static_cast<std::ptrdiff_t>(s);
    window[slot] = (idx >= 0 && idx < static_cast<std::ptrdiff_t>(n))
                       ? y[static_cast<std::size_t>(idx)]
                       : 0.0;
  }
}

void OdeSystem::jacobian_band_row(std::size_t j, double t,
                                  std::span<const double> window,
                                  std::span<double> band) const {
  const std::size_t s = stencil_halfwidth();
  if (band.size() != 2 * s + 1)
    throw std::invalid_argument("jacobian_band_row: wrong band size");
  const std::size_t n = dimension();
  for (std::size_t slot = 0; slot < band.size(); ++slot) {
    const std::ptrdiff_t k =
        static_cast<std::ptrdiff_t>(j) + static_cast<std::ptrdiff_t>(slot) -
        static_cast<std::ptrdiff_t>(s);
    band[slot] = (k >= 0 && k < static_cast<std::ptrdiff_t>(n))
                     ? rhs_partial(j, static_cast<std::size_t>(k), t, window)
                     : 0.0;
  }
}

void OdeSystem::rhs_range(std::size_t first, std::size_t count, double t,
                          std::span<const double> y_ext,
                          std::span<double> out) const {
  const std::size_t width = window_size();
  if (y_ext.size() != count + width - 1)
    throw std::invalid_argument("rhs_range: wrong y_ext size");
  if (out.size() != count)
    throw std::invalid_argument("rhs_range: wrong out size");
  // Sliding sub-spans of y_ext ARE the per-component windows — no copy.
  for (std::size_t r = 0; r < count; ++r)
    out[r] = rhs_component(first + r, t, y_ext.subspan(r, width));
}

void OdeSystem::jacobian_band_range(std::size_t first, std::size_t count,
                                    double t, std::span<const double> y_ext,
                                    std::span<double> band_rows) const {
  const std::size_t width = window_size();
  if (y_ext.size() != count + width - 1)
    throw std::invalid_argument("jacobian_band_range: wrong y_ext size");
  if (band_rows.size() != count * width)
    throw std::invalid_argument("jacobian_band_range: wrong band size");
  for (std::size_t r = 0; r < count; ++r)
    jacobian_band_row(first + r, t, y_ext.subspan(r, width),
                      band_rows.subspan(r * width, width));
}

std::size_t OdeSystem::scalar_rows_points(
    std::size_t first, std::size_t count, std::span<const double> old_rows,
    std::span<const double> new_rows, std::span<const double> window) const {
  const std::size_t n = dimension();
  if (first > n || count > n - first)
    throw std::out_of_range("scalar_euler_rows: range outside the system");
  const std::size_t width = window_size();
  const std::size_t pts = count == 0 ? 0 : new_rows.size() / count;
  if ((count > 0 && pts == 0) || new_rows.size() != count * pts ||
      old_rows.size() != (count + width - 1) * pts || window.size() != width)
    throw std::invalid_argument("scalar_euler_rows: size mismatch");
  return pts;
}

ScalarRowResult OdeSystem::scalar_euler_rows(std::size_t first,
                                             std::size_t count, double dt,
                                             std::span<const double> old_rows,
                                             std::span<double> new_rows,
                                             const NewtonOptions& opts,
                                             std::span<double> window) const {
  const std::size_t pts =
      scalar_rows_points(first, count, old_rows, new_rows, window);
  const std::size_t width = window_size();
  const std::size_t s = width / 2;
  ScalarRowResult total;
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t j = first + r;
    const auto rows = old_rows.subspan(r * pts, width * pts);
    fold_row_result(
        total,
        scalar_newton_row(
            rows.subspan(s * pts, pts), new_rows.subspan(r * pts, pts), dt,
            opts, [&](std::size_t step, double t_next) {
              for (std::size_t slot = 0; slot < width; ++slot)
                window[slot] = rows[slot * pts + step];
              return window_evaluator(*this, j, t_next, window);
            }));
  }
  return total;
}

void OdeSystem::rhs_full(double t, std::span<const double> y,
                         std::span<double> dydt) const {
  const std::size_t n = dimension();
  if (y.size() != n || dydt.size() != n)
    throw std::invalid_argument("rhs_full: size mismatch");
  std::vector<double> window(window_size());
  for (std::size_t j = 0; j < n; ++j) {
    extract_window(y, j, window);
    dydt[j] = rhs_component(j, t, window);
  }
}

}  // namespace aiac::ode
