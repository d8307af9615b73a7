#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/solver_types.hpp"
#include "matrices/generators.hpp"
#include "sparse/vector_ops.hpp"
#include "stats/rng.hpp"

namespace bars {
namespace {

Csr small_example() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  Coo c(3, 3);
  for (index_t i = 0; i < 3; ++i) {
    c.add(i, i, 2.0);
    if (i > 0) c.add(i, i - 1, -1.0);
    if (i < 2) c.add(i, i + 1, -1.0);
  }
  return Csr::from_coo(c);
}

TEST(Csr, FromCooBuildsCorrectStructure) {
  const Csr a = small_example();
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
}

TEST(Csr, FromCooSumsDuplicates) {
  Coo c(2, 2);
  c.add(0, 0, 1.0);
  c.add(0, 0, 3.0);
  const Csr a = Csr::from_coo(c);
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
}

TEST(Csr, ConstructorValidatesRowPtr) {
  EXPECT_THROW(Csr(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Csr(1, 1, {0, 2}, {0}, {1.0}), std::invalid_argument);
}

TEST(Csr, ConstructorValidatesColumnOrder) {
  // Columns within a row must be strictly increasing.
  EXPECT_THROW(Csr(1, 3, {0, 2}, {2, 1}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Csr(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Csr, ConstructorValidatesColumnRange) {
  EXPECT_THROW(Csr(1, 2, {0, 1}, {2}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Csr(1, 2, {0, 1}, {-1}, {1.0}), std::invalid_argument);
}

TEST(Csr, SpmvMatchesHandComputation) {
  const Csr a = small_example();
  const Vector x{1.0, 2.0, 3.0};
  Vector y(3);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);   // 2*1 - 2
  EXPECT_DOUBLE_EQ(y[1], 0.0);   // -1 + 4 - 3
  EXPECT_DOUBLE_EQ(y[2], 4.0);   // -2 + 6
}

TEST(Csr, ResidualComputesBMinusAx) {
  const Csr a = small_example();
  const Vector x{1.0, 1.0, 1.0};
  const Vector b{2.0, 2.0, 2.0};
  Vector r(3);
  a.residual(b, x, r);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.0);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
}

TEST(Csr, FusedRelativeResidualIsBitIdenticalToTwoPass) {
  // relative_residual makes one pass with no temporary; it must equal
  // the residual + norm2 pair it replaced bit for bit.
  const Csr mats[] = {fv_like(30, 0.4), trefethen(500),
                      random_spd(400, 6, 1.5, 11)};
  for (const Csr& a : mats) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      Rng rng(seed);
      const std::size_t n = static_cast<std::size_t>(a.rows());
      Vector b(n);
      Vector x(n);
      for (std::size_t i = 0; i < n; ++i) {
        b[i] = rng.uniform(-1.0, 1.0);
        x[i] = rng.uniform(-2.0, 2.0);
      }
      Vector r(n);
      a.residual(b, x, r);
      EXPECT_EQ(relative_residual(a, b, x), norm2(r) / norm2(b));
      const Vector zero(n, 0.0);  // ||b|| == 0: absolute residual
      a.residual(zero, x, r);
      EXPECT_EQ(relative_residual(a, zero, x), norm2(r));
    }
  }
}

TEST(Csr, DiagonalExtraction) {
  const Csr a = small_example();
  const Vector d = a.diagonal();
  ASSERT_EQ(d.size(), 3u);
  for (value_t v : d) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Csr, IsSymmetricDetectsSymmetry) {
  EXPECT_TRUE(small_example().is_symmetric());
  Coo c(2, 2);
  c.add(0, 1, 1.0);
  EXPECT_FALSE(Csr::from_coo(c).is_symmetric());
}

TEST(Csr, TransposeRoundTrip) {
  Coo c(2, 3);
  c.add(0, 2, 5.0);
  c.add(1, 0, -2.0);
  const Csr a = Csr::from_coo(c);
  const Csr at = a.transpose();
  EXPECT_EQ(at.rows(), 3);
  EXPECT_EQ(at.cols(), 2);
  EXPECT_DOUBLE_EQ(at.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(at.at(0, 1), -2.0);
  const Csr att = at.transpose();
  EXPECT_DOUBLE_EQ(att.at(0, 2), 5.0);
  EXPECT_EQ(att.nnz(), a.nnz());
}

TEST(Csr, AbsTakesAbsoluteValues) {
  const Csr a = small_example();
  const Csr b = a.abs();
  EXPECT_DOUBLE_EQ(b.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(b.at(1, 1), 2.0);
}

TEST(Csr, ToCooRoundTrip) {
  const Csr a = small_example();
  const Csr b = Csr::from_coo(a.to_coo());
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_DOUBLE_EQ(b.at(1, 2), -1.0);
}

TEST(Csr, JacobiIterationMatrixHasZeroDiagonal) {
  const Csr b = jacobi_iteration_matrix(small_example());
  for (index_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(b.at(i, i), 0.0);
  EXPECT_DOUBLE_EQ(b.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(b.at(1, 0), 0.5);
}

TEST(Csr, JacobiIterationMatrixThrowsOnZeroDiagonal) {
  Coo c(2, 2);
  c.add(0, 1, 1.0);
  c.add(1, 0, 1.0);
  EXPECT_THROW(jacobi_iteration_matrix(Csr::from_coo(c)),
               std::invalid_argument);
}

TEST(Csr, ScaledJacobiIterationMatrixAppliesTau) {
  const Csr b = scaled_jacobi_iteration_matrix(small_example(), 0.5);
  EXPECT_DOUBLE_EQ(b.at(0, 0), 0.5);   // 1 - tau
  EXPECT_DOUBLE_EQ(b.at(0, 1), 0.25);  // tau * 1/2
}

TEST(Csr, RowSpansMatchEntries) {
  const Csr a = small_example();
  EXPECT_EQ(a.row_cols(1).size(), 3u);
  EXPECT_EQ(a.row_cols(0).size(), 2u);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[1], 2.0);
}

TEST(Csr, EmptyMatrix) {
  const Csr a;
  EXPECT_EQ(a.rows(), 0);
  EXPECT_EQ(a.nnz(), 0);
}

}  // namespace
}  // namespace bars
