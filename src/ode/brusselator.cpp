#include "ode/brusselator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "ode/newton.hpp"

namespace aiac::ode {

Brusselator::Brusselator(Params params) : params_(params) {
  if (params_.grid_points == 0)
    throw std::invalid_argument("Brusselator: need at least one grid point");
  const double np1 = static_cast<double>(params_.grid_points + 1);
  diffusion_ = params_.alpha * np1 * np1;
}

double Brusselator::rhs_component(std::size_t j, double /*t*/,
                                  std::span<const double> window) const {
  const std::size_t n = dimension();
  if (j >= n) throw std::out_of_range("Brusselator::rhs_component");
  const std::size_t i = j / 2;           // grid point index, 0-based
  const bool is_u = (j % 2) == 0;
  const double c = diffusion_;
  if (is_u) {
    const double u = slot(window, 0);
    const double v = slot(window, +1);
    const double u_left =
        i == 0 ? params_.u_boundary : slot(window, -2);
    const double u_right =
        i + 1 == params_.grid_points ? params_.u_boundary : slot(window, +2);
    return 1.0 + u * u * v - 4.0 * u + c * (u_left - 2.0 * u + u_right);
  }
  const double v = slot(window, 0);
  const double u = slot(window, -1);
  const double v_left = i == 0 ? params_.v_boundary : slot(window, -2);
  const double v_right =
      i + 1 == params_.grid_points ? params_.v_boundary : slot(window, +2);
  return 3.0 * u - u * u * v + c * (v_left - 2.0 * v + v_right);
}

double Brusselator::rhs_partial(std::size_t j, std::size_t k, double /*t*/,
                                std::span<const double> window) const {
  const std::size_t n = dimension();
  if (j >= n || k >= n) throw std::out_of_range("Brusselator::rhs_partial");
  const std::ptrdiff_t d =
      static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(j);
  if (d < -2 || d > 2) return 0.0;
  const std::size_t i = j / 2;
  const bool is_u = (j % 2) == 0;
  const double c = diffusion_;
  if (is_u) {
    const double u = slot(window, 0);
    const double v = slot(window, +1);
    switch (d) {
      case 0:
        return 2.0 * u * v - 4.0 - 2.0 * c;
      case +1:
        return u * u;  // d f_u / d v_i
      case -2:
        return i == 0 ? 0.0 : c;  // u_{i-1}
      case +2:
        return i + 1 == params_.grid_points ? 0.0 : c;  // u_{i+1}
      default:
        return 0.0;  // d == -1 would be v_{i-1}: no coupling
    }
  }
  const double u = slot(window, -1);
  switch (d) {
    case 0:
      return -u * u - 2.0 * c;
    case -1:
      return 3.0 - 2.0 * u * slot(window, 0);  // d f_v / d u_i
    case -2:
      return i == 0 ? 0.0 : c;  // v_{i-1}
    case +2:
      return i + 1 == params_.grid_points ? 0.0 : c;  // v_{i+1}
    default:
      return 0.0;
  }
}

void Brusselator::jacobian_band_row(std::size_t j, double /*t*/,
                                    std::span<const double> window,
                                    std::span<double> band) const {
  if (j >= dimension())
    throw std::out_of_range("Brusselator::jacobian_band_row");
  if (band.size() != 5)
    throw std::invalid_argument("Brusselator::jacobian_band_row: band size");
  const std::size_t i = j / 2;
  const bool is_u = (j % 2) == 0;
  const double c = diffusion_;
  const double cl = i == 0 ? 0.0 : c;  // boundary values are constants
  const double cr = i + 1 == params_.grid_points ? 0.0 : c;
  if (is_u) {
    const double u = slot(window, 0);
    const double v = slot(window, +1);
    band[0] = cl;                            // u_{i-1}
    band[1] = 0.0;                           // v_{i-1}: no coupling
    band[2] = 2.0 * u * v - 4.0 - 2.0 * c;   // u_i
    band[3] = u * u;                         // v_i
    band[4] = cr;                            // u_{i+1}
    return;
  }
  const double u = slot(window, -1);
  band[0] = cl;                              // v_{i-1}
  band[1] = 3.0 - 2.0 * u * slot(window, 0); // u_i
  band[2] = -u * u - 2.0 * c;                // v_i
  band[3] = 0.0;                             // u_{i+1}: no coupling
  band[4] = cr;                              // v_{i+1}
}

void Brusselator::rhs_range(std::size_t first, std::size_t count, double t,
                            std::span<const double> y_ext,
                            std::span<double> out) const {
  if (y_ext.size() != count + 4 || out.size() != count)
    throw std::invalid_argument("Brusselator::rhs_range: size mismatch");
  (void)t;
  const double c = diffusion_;
  const std::size_t n_grid = params_.grid_points;
  // w[2 + d] = y_{j+d}; out-of-domain slots are zero and replaced by the
  // Dirichlet boundary values, as in rhs_component. The loop is
  // restructured from per-row `j % 2` branching into a stride-2 fused
  // (u, v) pair body with a peeled odd-first head and an unpaired tail:
  // the pair body is branch-free in the parity test, shares the u/v
  // loads and the u*u*v product between the two rows, and keeps every
  // access stride-1 so the compiler can vectorize it. Operation order
  // matches the branchy form exactly (bitwise-identical output).
  const double* __restrict y = y_ext.data();
  double* __restrict o = out.data();
  std::size_t r = 0;
  if ((first % 2) != 0 && r < count) {  // leading v-row of a split pair
    const double* w = y + r;
    const std::size_t i = (first + r) / 2;
    const double v = w[2];
    const double u = w[1];
    const double v_left = i == 0 ? params_.v_boundary : w[0];
    const double v_right = i + 1 == n_grid ? params_.v_boundary : w[4];
    o[r] = 3.0 * u - u * u * v + c * (v_left - 2.0 * v + v_right);
    ++r;
  }
  for (; r + 1 < count; r += 2) {
    const double* w = y + r;
    const std::size_t i = (first + r) / 2;
    const double u = w[2];
    const double v = w[3];
    const double u_left = i == 0 ? params_.u_boundary : w[0];
    const double u_right = i + 1 == n_grid ? params_.u_boundary : w[4];
    const double v_left = i == 0 ? params_.v_boundary : w[1];
    const double v_right = i + 1 == n_grid ? params_.v_boundary : w[5];
    const double uuv = u * u * v;
    o[r] = 1.0 + uuv - 4.0 * u + c * (u_left - 2.0 * u + u_right);
    o[r + 1] = 3.0 * u - uuv + c * (v_left - 2.0 * v + v_right);
  }
  if (r < count) {  // trailing u-row of a split pair
    const double* w = y + r;
    const std::size_t i = (first + r) / 2;
    const double u = w[2];
    const double v = w[3];
    const double u_left = i == 0 ? params_.u_boundary : w[0];
    const double u_right = i + 1 == n_grid ? params_.u_boundary : w[4];
    o[r] = 1.0 + u * u * v - 4.0 * u + c * (u_left - 2.0 * u + u_right);
  }
}

void Brusselator::jacobian_band_range(std::size_t first, std::size_t count,
                                      double t,
                                      std::span<const double> y_ext,
                                      std::span<double> band_rows) const {
  if (y_ext.size() != count + 4 || band_rows.size() != count * 5)
    throw std::invalid_argument(
        "Brusselator::jacobian_band_range: size mismatch");
  (void)t;
  const double c = diffusion_;
  const std::size_t n_grid = params_.grid_points;
  // Same peel/pair/tail restructure as rhs_range: the fused pair body
  // writes both band rows (10 contiguous doubles) per grid point,
  // sharing the u/v loads and the 2*u*v product, with operation order
  // identical to the branchy form (bitwise-identical output).
  const double* __restrict y = y_ext.data();
  double* __restrict bands = band_rows.data();
  std::size_t r = 0;
  if ((first % 2) != 0 && r < count) {  // leading v-row of a split pair
    const double* w = y + r;
    double* band = bands + r * 5;
    const std::size_t i = (first + r) / 2;
    const double cl = i == 0 ? 0.0 : c;
    const double cr = i + 1 == n_grid ? 0.0 : c;
    const double u = w[1];
    band[0] = cl;                    // v_{i-1}
    band[1] = 3.0 - 2.0 * u * w[2];  // u_i
    band[2] = -u * u - 2.0 * c;      // v_i
    band[3] = 0.0;                   // u_{i+1}: no coupling
    band[4] = cr;                    // v_{i+1}
    ++r;
  }
  for (; r + 1 < count; r += 2) {
    const double* w = y + r;
    double* band = bands + r * 5;
    const std::size_t i = (first + r) / 2;
    const double cl = i == 0 ? 0.0 : c;
    const double cr = i + 1 == n_grid ? 0.0 : c;
    const double u = w[2];
    const double v = w[3];
    const double uu = u * u;
    band[0] = cl;                           // u_{i-1}
    band[1] = 0.0;                          // v_{i-1}: no coupling
    band[2] = 2.0 * u * v - 4.0 - 2.0 * c;  // u_i
    band[3] = uu;                           // v_i
    band[4] = cr;                           // u_{i+1}
    band[5] = cl;                    // v_{i-1}
    band[6] = 3.0 - 2.0 * u * v;     // u_i
    band[7] = -uu - 2.0 * c;         // v_i
    band[8] = 0.0;                   // u_{i+1}: no coupling
    band[9] = cr;                    // v_{i+1}
  }
  if (r < count) {  // trailing u-row of a split pair
    const double* w = y + r;
    double* band = bands + r * 5;
    const std::size_t i = (first + r) / 2;
    const double cl = i == 0 ? 0.0 : c;
    const double cr = i + 1 == n_grid ? 0.0 : c;
    const double u = w[2];
    const double v = w[3];
    band[0] = cl;                           // u_{i-1}
    band[1] = 0.0;                          // v_{i-1}: no coupling
    band[2] = 2.0 * u * v - 4.0 - 2.0 * c;  // u_i
    band[3] = u * u;                        // v_i
    band[4] = cr;                           // u_{i+1}
  }
}

ScalarRowResult Brusselator::scalar_euler_rows(
    std::size_t first, std::size_t count, double dt,
    std::span<const double> old_rows, std::span<double> new_rows,
    const NewtonOptions& opts, std::span<double> window) const {
  const std::size_t pts =
      scalar_rows_points(first, count, old_rows, new_rows, window);
  using lanes::kWidth;
  using lanes::Lanes;
  // A row's neighbor column at stride 1, or a Dirichlet boundary value at
  // stride 0 (resolved once per row, not per step).
  struct Column {
    const double* at;
    std::size_t stride;
  };
  struct LaneColumns {
    std::array<Column, kWidth> lane;
    Lanes operator()(std::size_t step) const {
      return Lanes(lane[0].at[step * lane[0].stride],
                   lane[1].at[step * lane[1].stride],
                   lane[2].at[step * lane[2].stride],
                   lane[3].at[step * lane[3].stride]);
    }
  };
  const double c = diffusion_;
  const std::size_t n_grid = params_.grid_points;
  const double* rows = old_rows.data();
  ScalarRowResult total;
  // Same-parity rows run four to a lockstep group (u with u, v with v:
  // the two species have different evaluators); a short last group
  // repeats its first row in the spare lanes. Within a group only the
  // iterate varies inside a step's Newton iteration; the lane
  // expressions below are rhs_component / rhs_partial(j, j) verbatim, so
  // every lane is bitwise the default path's row.
  for (const bool is_u : {true, false}) {
    const double& boundary = is_u ? params_.u_boundary : params_.v_boundary;
    const std::size_t head = ((first % 2 == 0) == is_u) ? 0 : 1;
    for (std::size_t r0 = head; r0 < count; r0 += 2 * kWidth) {
      const std::size_t live = std::min(kWidth, (count - r0 + 1) / 2);
      std::array<const double*, kWidth> center{};
      std::array<double*, kWidth> out{};
      LaneColumns left{}, partner{}, right{};
      for (std::size_t k = 0; k < kWidth; ++k) {
        const std::size_t r = r0 + 2 * (k < live ? k : 0);
        const std::size_t i = (first + r) / 2;
        const double* ext = rows + r * pts;  // extended row r: slot 0
        center[k] = ext + 2 * pts;
        out[k] = new_rows.data() + r * pts;
        // u_i reads v_i (slot 3); v_i reads u_i (slot 1).
        partner.lane[k] = Column{ext + (is_u ? 3 : 1) * pts, 1};
        left.lane[k] = i == 0 ? Column{&boundary, 0} : Column{ext, 1};
        right.lane[k] = i + 1 == n_grid ? Column{&boundary, 0}
                                        : Column{ext + 4 * pts, 1};
      }
      const ScalarRowResult group =
          is_u ? scalar_newton_lane_rows(
                     center, out, live, pts, dt, opts,
                     [&](std::size_t step) {
                       const Lanes v = partner(step);
                       const Lanes u_left = left(step);
                       const Lanes u_right = right(step);
                       return [=](Lanes u) {
                         return lanes::Eval{
                             1.0 + u * u * v - 4.0 * u +
                                 c * (u_left - 2.0 * u + u_right),
                             2.0 * u * v - 4.0 - 2.0 * c};
                       };
                     })
               : scalar_newton_lane_rows(
                     center, out, live, pts, dt, opts,
                     [&](std::size_t step) {
                       const Lanes u = partner(step);
                       const Lanes v_left = left(step);
                       const Lanes v_right = right(step);
                       return [=](Lanes v) {
                         return lanes::Eval{
                             3.0 * u - u * u * v +
                                 c * (v_left - 2.0 * v + v_right),
                             -u * u - 2.0 * c};
                       };
                     });
      fold_row_result(total, group);
    }
  }
  return total;
}

void Brusselator::initial_state(std::span<double> y) const {
  if (y.size() != dimension())
    throw std::invalid_argument("Brusselator::initial_state: size mismatch");
  const double np1 = static_cast<double>(params_.grid_points + 1);
  for (std::size_t i = 0; i < params_.grid_points; ++i) {
    const double x = static_cast<double>(i + 1) / np1;
    y[2 * i] = 1.0 + std::sin(2.0 * std::numbers::pi * x);
    y[2 * i + 1] = 3.0;
  }
}

}  // namespace aiac::ode
