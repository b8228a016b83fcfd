// Trajectory storage for waveform-style iteration.
//
// The paper's algorithm recomputes, at every outer iteration, the whole
// time evolution of each local spatial component ("for j ... for t ...
// Ynew[j,t] = Solve(Yold[j,t])"). A Trajectory holds such data: one
// contiguous row of (num_steps + 1) values per component, so migrating a
// component between processors is moving one row.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aiac::ode {

class Trajectory {
 public:
  Trajectory() = default;
  /// `components` rows x (`num_steps` + 1) columns, zero-initialized.
  /// Column 0 is t = 0; column k is t = k * dt.
  Trajectory(std::size_t components, std::size_t num_steps);

  std::size_t components() const noexcept { return components_; }
  std::size_t num_steps() const noexcept { return num_steps_; }
  std::size_t points_per_component() const noexcept { return num_steps_ + 1; }

  double& at(std::size_t component, std::size_t step) noexcept {
    return data_[component * (num_steps_ + 1) + step];
  }
  double at(std::size_t component, std::size_t step) const noexcept {
    return data_[component * (num_steps_ + 1) + step];
  }

  /// Full row of one component (num_steps + 1 values).
  std::span<double> row(std::size_t component);
  std::span<const double> row(std::size_t component) const;
  /// `count` consecutive rows from `first`, contiguous row-major.
  std::span<double> rows(std::size_t first, std::size_t count);

  /// Column snapshot: value of every component at a step.
  std::vector<double> column(std::size_t step) const;
  /// Writes a state vector into column `step`.
  void set_column(std::size_t step, std::span<const double> state);

  /// Max-norm distance to another trajectory of identical shape.
  double max_abs_diff(const Trajectory& other) const;
  /// Max-norm distance over a sub-range of rows.
  double max_abs_diff_rows(const Trajectory& other, std::size_t first_row,
                           std::size_t count) const;

  /// Copies `count` rows starting at `first` packed row-major into `out`
  /// (size `count * points_per_component()`). Allocation-free — the
  /// building block migration/boundary packing uses with pooled buffers.
  void copy_rows_into(std::size_t first, std::size_t count,
                      std::span<double> out) const;
  /// Removes `count` rows starting at `first` without returning them.
  void remove_rows(std::size_t first, std::size_t count);
  /// Removes `count` rows starting at `first`, returning them packed
  /// row-major (copy_rows_into + remove_rows; allocates the result).
  std::vector<double> extract_rows(std::size_t first, std::size_t count);
  /// Inserts rows (packed row-major, `count` x points) before `first`.
  void insert_rows(std::size_t first, std::size_t count,
                   std::span<const double> packed);

  std::span<const double> raw() const noexcept { return data_; }

 private:
  std::size_t components_ = 0;
  std::size_t num_steps_ = 0;
  std::vector<double> data_;
};

}  // namespace aiac::ode
