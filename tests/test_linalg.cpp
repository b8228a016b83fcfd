// Tests for the linear algebra substrate: vector ops, dense/banded LU,
// tridiagonal solver, CSR, and the stationary iterative solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "linalg/banded_matrix.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/stationary.hpp"
#include "linalg/vector_ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace aiac::linalg;

TEST(VectorOps, NormsAndDot) {
  const std::vector<double> a = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
  EXPECT_DOUBLE_EQ(norm1(a), 7.0);
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), -5.0);
  EXPECT_THROW(dot(a, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(VectorOps, AxpyAndDiff) {
  std::vector<double> y = {1.0, 1.0};
  axpy(2.0, std::vector<double>{1.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(y, std::vector<double>{3.0, 0.0}), 1.0);
}

TEST(VectorOps, Linspace) {
  const auto g = linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
}

TEST(DenseLuTest, SolvesRandomSystems) {
  aiac::util::Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 6;
    DenseMatrix a(n, n);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) {
      x_true[i] = rng.uniform(-2, 2);
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
      a(i, i) += 4.0;  // make it comfortably nonsingular
    }
    std::vector<double> b(n);
    a.multiply(x_true, b);
    DenseLu lu(a);
    lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-10);
  }
}

TEST(DenseLuTest, PivotingHandlesZeroDiagonal) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  DenseLu lu(a);
  std::vector<double> b = {2.0, 3.0};
  lu.solve(b);  // x = (3, 2)
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(lu.determinant(), -1.0);
}

TEST(DenseLuTest, ThrowsOnSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(DenseLu{a}, std::runtime_error);
}

TEST(BandedMatrixTest, BandAccessRules) {
  BandedMatrix m(5, 1, 2);
  EXPECT_TRUE(m.in_band(2, 1));
  EXPECT_TRUE(m.in_band(2, 4));
  EXPECT_FALSE(m.in_band(2, 0));  // below the band
  EXPECT_FALSE(m.in_band(0, 3));  // above the band
  m.ref(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(3, 0), 0.0);
  EXPECT_THROW(m.ref(4, 0), std::out_of_range);
}

TEST(BandedLuTest, MatchesDenseOnRandomBandedSystems) {
  aiac::util::Rng rng(13);
  const std::size_t n = 12, kl = 2, ku = 2;
  BandedMatrix banded(n, kl, ku);
  DenseMatrix dense(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (banded.in_band(r, c)) {
        const double v = r == c ? rng.uniform(4, 6) : rng.uniform(-1, 1);
        banded.ref(r, c) = v;
        dense(r, c) = v;
      }
  std::vector<double> x_true(n);
  for (auto& x : x_true) x = rng.uniform(-1, 1);
  std::vector<double> b(n);
  dense.multiply(x_true, b);

  BandedLu lu(banded);
  lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-10);
}

TEST(BandedLuTest, ThrowsOnTinyPivot) {
  BandedMatrix m(2, 0, 0);  // diagonal matrix with a zero pivot
  m.ref(0, 0) = 1.0;
  m.ref(1, 1) = 0.0;
  EXPECT_THROW(BandedLu{m}, std::runtime_error);
}

// ---- Fused factor+solve parity -------------------------------------------
//
// banded_lu_factor_solve_in_place promises the bits of
// banded_lu_factor_in_place followed by banded_lu_solve_in_place, on the
// factors and on the solution, for the fixed-bandwidth kernels (KL = 1, 2)
// and the generic loops alike.

struct BandShape {
  std::size_t kl;
  std::size_t ku;
};

// Random diagonally dominant band. Exact zeros sit where the Brusselator's
// Jacobian has them (no u_i -> v_{i-1} and no v_i -> u_{i+1} coupling in
// the interleaved pentadiagonal layout) plus at random off-diagonal slots.
BandedMatrix random_band(std::size_t n, BandShape shape, std::uint64_t seed) {
  aiac::util::Rng rng(seed);
  BandedMatrix m(n, shape.kl, shape.ku);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      if (!m.in_band(r, c)) continue;
      const bool no_coupling =
          shape.kl == 2 && shape.ku == 2 &&
          ((r % 2 == 0 && c + 1 == r) || (r % 2 == 1 && c == r + 1));
      if (r == c)
        m.ref(r, c) = rng.uniform(3.0, 5.0) * (rng.uniform() < 0.5 ? -1 : 1);
      else if (no_coupling || rng.uniform() < 0.2)
        m.ref(r, c) = 0.0;
      else
        m.ref(r, c) = rng.uniform(-1.0, 1.0);
    }
  return m;
}

std::vector<double> random_rhs(std::size_t n, std::uint64_t seed) {
  aiac::util::Rng rng(seed);
  std::vector<double> b(n);
  for (auto& x : b) x = rng.uniform(-2.0, 2.0);
  return b;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// In-band entries only: band-storage padding is unspecified.
void expect_same_factors(const BandedMatrix& a, const BandedMatrix& b) {
  for (std::size_t r = 0; r < a.size(); ++r)
    for (std::size_t c = 0; c < a.size(); ++c) {
      if (!a.in_band(r, c)) continue;
      EXPECT_TRUE(same_bits(a.at(r, c), b.at(r, c)))
          << "factor entry (" << r << ", " << c << "): " << a.at(r, c)
          << " vs " << b.at(r, c);
    }
}

class FusedBandedLu : public ::testing::TestWithParam<BandShape> {};

TEST_P(FusedBandedLu, MatchesFactorThenSolveBitwise) {
  const BandShape shape = GetParam();
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 33u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", seed " +
                   std::to_string(seed));
      BandedMatrix two_pass = random_band(n, shape, seed);
      BandedMatrix fused = two_pass;
      std::vector<double> x_two_pass = random_rhs(n, seed + 100);
      std::vector<double> x_fused = x_two_pass;

      banded_lu_factor_in_place(two_pass);
      banded_lu_solve_in_place(two_pass, x_two_pass);
      banded_lu_factor_solve_in_place(fused, x_fused);

      expect_same_factors(two_pass, fused);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(same_bits(x_two_pass[i], x_fused[i]))
            << "x[" << i << "]: " << x_two_pass[i] << " vs " << x_fused[i];

      // The factors the fused pass leaves behind serve later solves.
      std::vector<double> again = random_rhs(n, seed + 200);
      std::vector<double> again_ref = again;
      banded_lu_solve_in_place(fused, again);
      banded_lu_solve_in_place(two_pass, again_ref);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(same_bits(again[i], again_ref[i]));
    }
  }
}

TEST_P(FusedBandedLu, SubTolerancePivotNamesTheSameRow) {
  const BandShape shape = GetParam();
  const std::size_t n = 8;
  for (const std::size_t bad_row : {std::size_t{0}, std::size_t{3}, n - 1}) {
    // A zero row leaves a zero pivot at exactly that row: its multipliers
    // are zero, so no earlier step changes its diagonal.
    BandedMatrix m = random_band(n, shape, 7);
    for (std::size_t c = 0; c < n; ++c)
      if (m.in_band(bad_row, c)) m.ref(bad_row, c) = 0.0;
    const std::string expected =
        "banded LU: pivot below tolerance at row " + std::to_string(bad_row);

    BandedMatrix factored = m;
    try {
      banded_lu_factor_in_place(factored);
      ADD_FAILURE() << "factor accepted a zero pivot";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), expected);
    }
    BandedMatrix fused = m;
    std::vector<double> b = random_rhs(n, 9);
    try {
      banded_lu_factor_solve_in_place(fused, b);
      ADD_FAILURE() << "fused factor+solve accepted a zero pivot";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), expected);
    }
  }
}

TEST_P(FusedBandedLu, SizeMismatchLeavesTheMatrixUntouched) {
  const BandedMatrix original = random_band(5, GetParam(), 3);
  BandedMatrix m = original;
  std::vector<double> b(4, 1.0);
  EXPECT_THROW(banded_lu_factor_solve_in_place(m, b), std::invalid_argument);
  expect_same_factors(original, m);
}

INSTANTIATE_TEST_SUITE_P(
    Bandwidths, FusedBandedLu,
    ::testing::Values(BandShape{1, 1}, BandShape{2, 2}, BandShape{3, 3},
                      BandShape{1, 2}, BandShape{2, 1}),
    [](const auto& shape_info) {
      return "kl" + std::to_string(shape_info.param.kl) + "ku" +
             std::to_string(shape_info.param.ku);
    });

TEST(Tridiagonal, MatchesBandedSolver) {
  const std::size_t n = 20;
  std::vector<double> lower(n, -1.0), diag(n, 3.0), upper(n, -1.0), rhs(n);
  aiac::util::Rng rng(17);
  for (auto& r : rhs) r = rng.uniform(-1, 1);
  auto rhs2 = rhs;
  solve_tridiagonal(lower, diag, upper, rhs);

  BandedMatrix m(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.ref(i, i) = 3.0;
    if (i > 0) m.ref(i, i - 1) = -1.0;
    if (i + 1 < n) m.ref(i, i + 1) = -1.0;
  }
  BandedLu lu(m);
  lu.solve(rhs2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rhs[i], rhs2[i], 1e-12);
}

TEST(CsrMatrixTest, TripletsSumDuplicatesAndSort) {
  auto m = CsrMatrix::from_triplets(2, 2, {{0, 1, 1.0},
                                           {0, 0, 2.0},
                                           {0, 1, 0.5},
                                           {1, 1, 3.0}});
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
}

TEST(CsrMatrixTest, Laplacian1dStructure) {
  const auto lap = CsrMatrix::laplacian_1d(5);
  EXPECT_TRUE(lap.strictly_diagonally_dominant() == false);  // weak at rows
  EXPECT_DOUBLE_EQ(lap.at(2, 2), 2.0);
  EXPECT_DOUBLE_EQ(lap.at(2, 1), -1.0);
  std::vector<double> ones(5, 1.0), y(5);
  lap.multiply(ones, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);  // boundary rows
  EXPECT_DOUBLE_EQ(y[2], 0.0);  // interior rows annihilate constants
}

TEST(CsrMatrixTest, Laplacian2dRowSums) {
  const auto lap = CsrMatrix::laplacian_2d(4, 3);
  EXPECT_EQ(lap.rows(), 12u);
  // Interior point has 4 neighbors.
  EXPECT_DOUBLE_EQ(lap.at(5, 5), 4.0);
  EXPECT_DOUBLE_EQ(lap.at(5, 4), -1.0);
  EXPECT_DOUBLE_EQ(lap.at(5, 9), -1.0);
}

TEST(Stationary, JacobiAndGaussSeidelSolveDominantSystem) {
  // Strictly dominant variant of the 1D Laplacian.
  const auto a = CsrMatrix::laplacian_1d(30, 2.5, -1.0);
  ASSERT_TRUE(a.strictly_diagonally_dominant());
  std::vector<double> x_true(30);
  aiac::util::Rng rng(19);
  for (auto& x : x_true) x = rng.uniform(-1, 1);
  std::vector<double> b(30);
  a.multiply(x_true, b);
  std::vector<double> x0(30, 0.0);

  const auto jacobi_result = jacobi(a, b, x0);
  ASSERT_TRUE(jacobi_result.converged);
  const auto gs_result = gauss_seidel(a, b, x0);
  ASSERT_TRUE(gs_result.converged);
  // Gauss-Seidel converges faster than Jacobi (paper §1.1).
  EXPECT_LT(gs_result.iterations, jacobi_result.iterations);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_NEAR(jacobi_result.x[i], x_true[i], 1e-8);
    EXPECT_NEAR(gs_result.x[i], x_true[i], 1e-8);
  }
}

TEST(Stationary, SorWithGoodOmegaBeatsGaussSeidel) {
  const auto a = CsrMatrix::laplacian_1d(40);
  std::vector<double> b(40, 1.0);
  std::vector<double> x0(40, 0.0);
  IterativeOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 100000;
  const auto gs = gauss_seidel(a, b, x0, opts);
  IterativeOptions sor_opts = opts;
  sor_opts.relaxation = 1.8;
  const auto sr = sor(a, b, x0, sor_opts);
  ASSERT_TRUE(gs.converged);
  ASSERT_TRUE(sr.converged);
  EXPECT_LT(sr.iterations, gs.iterations);
}

TEST(Stationary, SorRejectsBadRelaxation) {
  const auto a = CsrMatrix::laplacian_1d(4);
  std::vector<double> b(4, 1.0), x0(4, 0.0);
  IterativeOptions opts;
  opts.relaxation = 2.5;
  EXPECT_THROW(sor(a, b, x0, opts), std::invalid_argument);
}

TEST(Stationary, SpectralRadiusEstimateForLaplacian) {
  // Jacobi iteration matrix of tridiag(-1, 2, -1) has spectral radius
  // cos(pi/(n+1)).
  const std::size_t n = 20;
  const auto a = CsrMatrix::laplacian_1d(n);
  const double estimate = jacobi_spectral_radius_estimate(a, 2000);
  const double exact = std::cos(M_PI / static_cast<double>(n + 1));
  EXPECT_NEAR(estimate, exact, 1e-3);
}

}  // namespace
