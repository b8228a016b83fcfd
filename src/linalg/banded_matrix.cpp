#include "linalg/banded_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace aiac::linalg {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t lower,
                           std::size_t upper)
    : n_(n), kl_(lower), ku_(upper), data_(n * (lower + upper + 1), 0.0) {}

bool BandedMatrix::in_band(std::size_t r, std::size_t c) const noexcept {
  if (r >= n_ || c >= n_) return false;
  if (c + kl_ < r) return false;  // below the band
  if (r + ku_ < c) return false;  // above the band
  return true;
}

double BandedMatrix::at(std::size_t r, std::size_t c) const noexcept {
  if (!in_band(r, c)) return 0.0;
  return data_[offset(r, c)];
}

double& BandedMatrix::ref(std::size_t r, std::size_t c) {
  if (!in_band(r, c))
    throw std::out_of_range("BandedMatrix::ref outside band");
  return data_[offset(r, c)];
}

void BandedMatrix::set_zero() noexcept {
  for (double& x : data_) x = 0.0;
}

void BandedMatrix::reshape(std::size_t n, std::size_t lower,
                           std::size_t upper) {
  if (n == n_ && lower == kl_ && upper == ku_) return;
  n_ = n;
  kl_ = lower;
  ku_ = upper;
  data_.resize(n * (lower + upper + 1));
}

void BandedMatrix::multiply(std::span<const double> x,
                            std::span<double> y) const {
  if (x.size() != n_ || y.size() != n_)
    throw std::invalid_argument("BandedMatrix::multiply: size mismatch");
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t c_lo = r > kl_ ? r - kl_ : 0;
    const std::size_t c_hi = std::min(n_ - 1, r + ku_);
    double sum = 0.0;
    for (std::size_t c = c_lo; c <= c_hi; ++c) sum += data_[offset(r, c)] * x[c];
    y[r] = sum;
  }
}

std::vector<double> BandedMatrix::to_dense() const {
  std::vector<double> dense(n_ * n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t c = 0; c < n_; ++c) dense[r * n_ + c] = at(r, c);
  return dense;
}

namespace {

// Every banded kernel reports a failed pivot through this one cold
// helper, so the kernels themselves carry no allocating code: the message
// string is built only on the error path.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void throw_pivot_failure(
    std::size_t row) {
  throw std::runtime_error("banded LU: pivot below tolerance at row " +
                           std::to_string(row));
}

// ---- Fixed bandwidth kl == ku == KL --------------------------------------
//
// The Newton systems are tridiagonal (stencil 1) or pentadiagonal (stencil
// 2), so these specializations cover the entire hot path. Kernel contract
// (DESIGN.md §13):
//  * bitwise: every entry receives the same operations in the same order
//    as in the generic loops below (multipliers from one 1/pivot, updates
//    in ascending elimination step, back substitution's sum/pivot), so
//    factor-then-solve and the fused factor+solve agree bit for bit;
//  * no reload of a value stored in the same row step: the active
//    (KL+1)x(KL+1) window of the band and the live right-hand-side and
//    solution entries are carried in locals, so every band slot is loaded
//    once before its first update and stored once when final.
// The second rule is the point: GCC -O3 vectorizes two-iteration inner
// loops over memory into 16-byte loads issued right after 8-byte stores
// to the same addresses, and such a load cannot be store-forwarded, so
// every row step would stall on its predecessor.

/// The number of live rows in one row step, as a compile-time constant:
/// every window index folds, so the window stays in registers.
template <std::size_t M>
using Live = std::integral_constant<std::size_t, M>;

/// Calls f(Live<I>{}) for I = 0 .. KL - 1: the KL row steps at an end of
/// the band, where the live rows run out.
template <std::size_t KL, typename F>
[[gnu::always_inline]] inline void unroll(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(Live<I>{}), ...);
  }(std::make_index_sequence<KL>{});
}

/// Band elimination, with the right-hand side eliminated alongside when
/// kRhs (forward substitution fused into the factorization; `b` is unused
/// otherwise). Requires n > KL.
template <std::size_t KL, bool kRhs>
void eliminate_small_band(double* __restrict data, std::size_t n,
                          double* __restrict b, double pivot_tolerance) {
  constexpr std::size_t stride = 2 * KL + 1;
  // w[i][j] = A(k + i, k + j) and y[i] = b[k + i] at row step k.
  double w[KL + 1][KL + 1] = {};
  double y[KL + 1] = {};
  for (std::size_t i = 0; i <= KL; ++i) {
    for (std::size_t j = 0; j <= KL; ++j)
      w[i][j] = data[i * stride + j + KL - i];
    if constexpr (kRhs) y[i] = b[i];
  }
  const auto step = [&](auto live, std::size_t k)
                        __attribute__((always_inline)) {
    constexpr std::size_t m = decltype(live)::value;
    const double pivot = w[0][0];
    if (std::abs(pivot) < pivot_tolerance) throw_pivot_failure(k);
    const double inv_pivot = 1.0 / pivot;
    double* __restrict row_k = data + k * stride;
    for (std::size_t i = 1; i <= m; ++i) {
      const double factor = w[i][0] * inv_pivot;
      row_k[i * stride + KL - i] = factor;  // L(k + i, k)
      for (std::size_t j = 1; j <= m; ++j) w[i][j] -= factor * w[0][j];
      if constexpr (kRhs) y[i] -= factor * y[0];
    }
    for (std::size_t j = 0; j <= m; ++j) row_k[KL + j] = w[0][j];  // U(k, .)
    if constexpr (kRhs) b[k] = y[0];
    if constexpr (m == KL) {
      // Slide to step k + 1: row k + 1 + KL and column k + 1 + KL enter
      // untouched, since no earlier step reaches them.
      for (std::size_t i = 0; i < KL; ++i) {
        for (std::size_t j = 0; j < KL; ++j) w[i][j] = w[i + 1][j + 1];
        if constexpr (kRhs) y[i] = y[i + 1];
      }
      const std::size_t r_new = k + 1 + KL;
      if (r_new < n) {
        for (std::size_t j = 0; j <= KL; ++j)
          w[KL][j] = data[r_new * stride + j];
        for (std::size_t i = 0; i < KL; ++i)
          w[i][KL] = data[(k + 1 + i) * stride + 2 * KL - i];
        if constexpr (kRhs) y[KL] = b[r_new];
      }
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) w[i][j] = w[i + 1][j + 1];
        if constexpr (kRhs) y[i] = y[i + 1];
      }
    }
  };
  std::size_t k = 0;
  for (; k + KL < n; ++k) step(Live<KL>{}, k);
  unroll<KL>([&](auto i) {
    step(Live<KL - 1 - decltype(i)::value>{}, k + i);
  });
}

/// Forward substitution with the unit lower factor, the last KL solution
/// entries carried in locals (x[d] = y at row i - d). Requires n > KL.
template <std::size_t KL>
void forward_small_band(const double* __restrict data, std::size_t n,
                        double* __restrict b) {
  constexpr std::size_t stride = 2 * KL + 1;
  double x[KL + 1] = {};
  const auto step = [&](auto live, std::size_t i)
                        __attribute__((always_inline)) {
    constexpr std::size_t m = decltype(live)::value;
    const double* __restrict row = data + i * stride;
    double sum = b[i];
    for (std::size_t d = m; d >= 1; --d)  // ascending column i - d
      sum -= row[KL - d] * x[d];
    for (std::size_t d = KL; d > 1; --d) x[d] = x[d - 1];
    x[1] = sum;
    b[i] = sum;
  };
  // Rows 0 .. KL - 1 have 0 .. KL - 1 entries left of the diagonal.
  unroll<KL>([&](auto i) { step(i, i); });
  for (std::size_t i = KL; i < n; ++i) step(Live<KL>{}, i);
}

/// Back substitution with the upper factor, the next KL solution entries
/// carried in locals (x[d] = x at row ii + d). Requires n > KL.
template <std::size_t KL>
void back_small_band(const double* __restrict data, std::size_t n,
                     double* __restrict b) {
  constexpr std::size_t stride = 2 * KL + 1;
  double x[KL + 1] = {};
  const auto step = [&](auto live, std::size_t ii)
                        __attribute__((always_inline)) {
    constexpr std::size_t m = decltype(live)::value;
    const double* __restrict row = data + ii * stride;
    double sum = b[ii];
    for (std::size_t d = 1; d <= m; ++d) sum -= row[KL + d] * x[d];
    for (std::size_t d = KL; d > 1; --d) x[d] = x[d - 1];
    x[1] = sum / row[KL];
    b[ii] = x[1];
  };
  // Rows n - 1 .. n - KL have 0 .. KL - 1 entries right of the diagonal.
  unroll<KL>([&](auto i) { step(i, n - 1 - i); });
  for (std::size_t ii = n - KL; ii-- > 0;) step(Live<KL>{}, ii);
}

// ---- Generic bandwidths ---------------------------------------------------
//
// Index arithmetic on the raw band storage (column c of row r sits at
// slot c + kl - r, always >= 0 within the band): the per-element in_band
// branches of at()/ref() would dominate at the small bandwidths used.

/// Band elimination; eliminates `b` alongside when non-null.
void eliminate_band(double* data, std::size_t n, std::size_t kl,
                    std::size_t ku, double* b, double pivot_tolerance) {
  const std::size_t stride = kl + ku + 1;
  for (std::size_t k = 0; k < n; ++k) {
    const double* row_k = data + k * stride;
    const double pivot = row_k[kl];
    if (std::abs(pivot) < pivot_tolerance) throw_pivot_failure(k);
    const double inv_pivot = 1.0 / pivot;
    const std::size_t r_hi = std::min(n - 1, k + kl);
    const std::size_t c_hi = std::min(n - 1, k + ku);
    for (std::size_t r = k + 1; r <= r_hi; ++r) {
      double* row_r = data + r * stride;
      const double factor = row_r[k + kl - r] * inv_pivot;
      row_r[k + kl - r] = factor;
      for (std::size_t c = k + 1; c <= c_hi; ++c)
        row_r[c + kl - r] -= factor * row_k[c + kl - k];
      if (b) b[r] -= factor * b[k];
    }
  }
}

void forward_band(const double* data, std::size_t n, std::size_t kl,
                  std::size_t ku, double* b) {
  const std::size_t stride = kl + ku + 1;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = data + i * stride;
    const std::size_t j_lo = i > kl ? i - kl : 0;
    double sum = b[i];
    for (std::size_t j = j_lo; j < i; ++j) sum -= row[j + kl - i] * b[j];
    b[i] = sum;
  }
}

void back_band(const double* data, std::size_t n, std::size_t kl,
               std::size_t ku, double* b) {
  const std::size_t stride = kl + ku + 1;
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = data + ii * stride;
    const std::size_t j_hi = std::min(n - 1, ii + ku);
    double sum = b[ii];
    for (std::size_t j = ii + 1; j <= j_hi; ++j) sum -= row[j + kl - ii] * b[j];
    b[ii] = sum / row[kl];
  }
}

/// The fixed bandwidth of `a` when a specialization covers it, else 0.
/// Systems of at most KL rows take the generic loops (same arithmetic).
std::size_t small_band(const BandedMatrix& a) noexcept {
  const std::size_t kl = a.lower_bandwidth();
  const bool covered = kl == a.upper_bandwidth() && (kl == 1 || kl == 2);
  return covered && a.size() > kl ? kl : 0;
}

void check_rhs_size(const BandedMatrix& a, std::span<double> b) {
  if (b.size() != a.size())
    throw std::invalid_argument("banded LU solve: size mismatch");
}

}  // namespace

void banded_lu_factor_in_place(BandedMatrix& a, double pivot_tolerance) {
  const std::size_t n = a.size();
  double* data = a.band_data().data();
  switch (small_band(a)) {
    case 1: return eliminate_small_band<1, false>(data, n, nullptr,
                                                  pivot_tolerance);
    case 2: return eliminate_small_band<2, false>(data, n, nullptr,
                                                  pivot_tolerance);
    default:
      eliminate_band(data, n, a.lower_bandwidth(), a.upper_bandwidth(),
                     nullptr, pivot_tolerance);
  }
}

void banded_lu_solve_in_place(const BandedMatrix& lu, std::span<double> b) {
  check_rhs_size(lu, b);
  const std::size_t n = lu.size();
  const double* data = lu.band_data().data();
  switch (small_band(lu)) {
    case 1:
      forward_small_band<1>(data, n, b.data());
      return back_small_band<1>(data, n, b.data());
    case 2:
      forward_small_band<2>(data, n, b.data());
      return back_small_band<2>(data, n, b.data());
    default: {
      const std::size_t kl = lu.lower_bandwidth();
      const std::size_t ku = lu.upper_bandwidth();
      forward_band(data, n, kl, ku, b.data());
      back_band(data, n, kl, ku, b.data());
    }
  }
}

void banded_lu_factor_solve_in_place(BandedMatrix& a, std::span<double> b,
                                     double pivot_tolerance) {
  check_rhs_size(a, b);
  const std::size_t n = a.size();
  double* data = a.band_data().data();
  switch (small_band(a)) {
    case 1:
      eliminate_small_band<1, true>(data, n, b.data(), pivot_tolerance);
      return back_small_band<1>(data, n, b.data());
    case 2:
      eliminate_small_band<2, true>(data, n, b.data(), pivot_tolerance);
      return back_small_band<2>(data, n, b.data());
    default: {
      const std::size_t kl = a.lower_bandwidth();
      const std::size_t ku = a.upper_bandwidth();
      eliminate_band(data, n, kl, ku, b.data(), pivot_tolerance);
      back_band(data, n, kl, ku, b.data());
    }
  }
}

BandedLu::BandedLu(BandedMatrix a, double pivot_tolerance)
    : lu_(std::move(a)) {
  banded_lu_factor_in_place(lu_, pivot_tolerance);
}

void BandedLu::solve(std::span<double> b) const {
  banded_lu_solve_in_place(lu_, b);
}

void solve_tridiagonal(std::span<const double> lower,
                       std::span<const double> diag,
                       std::span<const double> upper, std::span<double> rhs) {
  const std::size_t n = diag.size();
  if (lower.size() != n || upper.size() != n || rhs.size() != n)
    throw std::invalid_argument("solve_tridiagonal: size mismatch");
  if (n == 0) return;
  std::vector<double> scratch(n);
  double pivot = diag[0];
  if (pivot == 0.0) throw std::runtime_error("tridiagonal: zero pivot");
  rhs[0] /= pivot;
  for (std::size_t i = 1; i < n; ++i) {
    scratch[i] = upper[i - 1] / pivot;
    pivot = diag[i] - lower[i] * scratch[i];
    if (pivot == 0.0) throw std::runtime_error("tridiagonal: zero pivot");
    rhs[i] = (rhs[i] - lower[i] * rhs[i - 1]) / pivot;
  }
  for (std::size_t ii = n - 1; ii-- > 0;)
    rhs[ii] -= scratch[ii + 1] * rhs[ii + 1];
}

}  // namespace aiac::linalg
