#include "ode/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aiac::ode {

Trajectory::Trajectory(std::size_t components, std::size_t num_steps)
    : components_(components),
      num_steps_(num_steps),
      data_(components * (num_steps + 1), 0.0) {}

std::span<double> Trajectory::row(std::size_t component) {
  if (component >= components_) throw std::out_of_range("Trajectory::row");
  return {data_.data() + component * (num_steps_ + 1), num_steps_ + 1};
}

std::span<const double> Trajectory::row(std::size_t component) const {
  if (component >= components_) throw std::out_of_range("Trajectory::row");
  return {data_.data() + component * (num_steps_ + 1), num_steps_ + 1};
}

std::span<double> Trajectory::rows(std::size_t first, std::size_t count) {
  if (first > components_ || count > components_ - first)
    throw std::out_of_range("Trajectory::rows");
  return {data_.data() + first * (num_steps_ + 1), count * (num_steps_ + 1)};
}

std::vector<double> Trajectory::column(std::size_t step) const {
  if (step > num_steps_) throw std::out_of_range("Trajectory::column");
  std::vector<double> state(components_);
  for (std::size_t c = 0; c < components_; ++c) state[c] = at(c, step);
  return state;
}

void Trajectory::set_column(std::size_t step, std::span<const double> state) {
  if (step > num_steps_) throw std::out_of_range("Trajectory::set_column");
  if (state.size() != components_)
    throw std::invalid_argument("Trajectory::set_column: size mismatch");
  for (std::size_t c = 0; c < components_; ++c) at(c, step) = state[c];
}

double Trajectory::max_abs_diff(const Trajectory& other) const {
  return max_abs_diff_rows(other, 0, components_);
}

double Trajectory::max_abs_diff_rows(const Trajectory& other,
                                     std::size_t first_row,
                                     std::size_t count) const {
  if (components_ != other.components_ || num_steps_ != other.num_steps_)
    throw std::invalid_argument("Trajectory::max_abs_diff: shape mismatch");
  if (first_row + count > components_)
    throw std::out_of_range("Trajectory::max_abs_diff_rows");
  double best = 0.0;
  const std::size_t begin = first_row * (num_steps_ + 1);
  const std::size_t end = (first_row + count) * (num_steps_ + 1);
  for (std::size_t i = begin; i < end; ++i)
    best = std::max(best, std::abs(data_[i] - other.data_[i]));
  return best;
}

void Trajectory::copy_rows_into(std::size_t first, std::size_t count,
                                std::span<double> out) const {
  if (first + count > components_)
    throw std::out_of_range("Trajectory::copy_rows_into");
  const std::size_t points = num_steps_ + 1;
  if (out.size() != count * points)
    throw std::invalid_argument("Trajectory::copy_rows_into: size mismatch");
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(first * points),
            data_.begin() +
                static_cast<std::ptrdiff_t>((first + count) * points),
            out.begin());
}

void Trajectory::remove_rows(std::size_t first, std::size_t count) {
  if (first + count > components_)
    throw std::out_of_range("Trajectory::remove_rows");
  const std::size_t points = num_steps_ + 1;
  data_.erase(
      data_.begin() + static_cast<std::ptrdiff_t>(first * points),
      data_.begin() + static_cast<std::ptrdiff_t>((first + count) * points));
  components_ -= count;
}

std::vector<double> Trajectory::extract_rows(std::size_t first,
                                             std::size_t count) {
  std::vector<double> packed(count * (num_steps_ + 1));
  copy_rows_into(first, count, packed);
  remove_rows(first, count);
  return packed;
}

void Trajectory::insert_rows(std::size_t first, std::size_t count,
                             std::span<const double> packed) {
  if (first > components_) throw std::out_of_range("Trajectory::insert_rows");
  const std::size_t points = num_steps_ + 1;
  if (packed.size() != count * points)
    throw std::invalid_argument("Trajectory::insert_rows: size mismatch");
  data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(first * points),
               packed.begin(), packed.end());
  components_ += count;
}

}  // namespace aiac::ode
