#include "core/block_async.hpp"

#include <gtest/gtest.h>

#include "matrices/generators.hpp"

namespace bars {
namespace {

TEST(MultiGpuSolver, ConvergesOnTrefethen) {
  const Csr a = trefethen(500);
  const Vector b(500, 1.0);
  BlockAsyncOptions o;
  o.num_devices = 2;
  o.transfer = gpusim::TransferOptions{};  // AMC
  o.block_size = 64;
  o.local_iters = 5;
  o.matrix_name = "Trefethen_2000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-11;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_GT(r.virtual_time, 0.0);
}

TEST(MultiGpuSolver, AmcScalesFromOneToTwoDevices) {
  // Use the Trefethen_20000 per-iteration cost (the Fig. 11 setting):
  // with ~17 ms sweeps the fixed AMC staging cost is small and the
  // second device nearly halves the time.
  const Csr a = trefethen(1000);
  const Vector b(1000, 1.0);
  BlockAsyncOptions o;
  o.block_size = 16;  // 63 blocks >> 14 slots: no wave quantization
  o.local_iters = 5;
  o.matrix_name = "Trefethen_20000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-10;
  o.transfer = gpusim::TransferOptions{gpusim::TransferScheme::kAMC};
  o.num_devices = 1;
  const auto r1 = block_async_solve(a, b, o);
  o.num_devices = 2;
  const auto r2 = block_async_solve(a, b, o);
  ASSERT_TRUE(r1.solve.ok());
  ASSERT_TRUE(r2.solve.ok());
  EXPECT_LT(r2.virtual_time, r1.virtual_time);
  // "Almost cut in half": expect at least 25% improvement.
  EXPECT_LT(r2.virtual_time, 0.75 * r1.virtual_time);
}

TEST(MultiGpuSolver, DcImprovesLessThanAmcAtTwoDevices) {
  const Csr a = trefethen(1000);
  const Vector b(1000, 1.0);
  BlockAsyncOptions o;
  o.block_size = 16;
  o.local_iters = 5;
  o.matrix_name = "Trefethen_20000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-10;
  o.num_devices = 2;
  o.transfer = gpusim::TransferOptions{gpusim::TransferScheme::kAMC};
  const auto amc = block_async_solve(a, b, o);
  o.transfer = gpusim::TransferOptions{gpusim::TransferScheme::kDC};
  const auto dc = block_async_solve(a, b, o);
  ASSERT_TRUE(amc.solve.ok());
  ASSERT_TRUE(dc.solve.ok());
  EXPECT_LT(amc.virtual_time, dc.virtual_time);
}

TEST(MultiGpuSolver, AllSchemesReachSameSolution) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.block_size = 36;
  o.local_iters = 5;
  o.num_devices = 3;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-12;
  Vector ref;
  for (auto scheme :
       {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
        gpusim::TransferScheme::kDK}) {
    o.transfer = gpusim::TransferOptions{scheme};
    const auto r = block_async_solve(a, b, o);
    ASSERT_TRUE(r.solve.ok()) << to_string(scheme);
    if (ref.empty()) {
      ref = r.solve.x;
    } else {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(r.solve.x[i], ref[i], 1e-9);
      }
    }
  }
}

TEST(MultiGpuSolver, RejectsDimensionMismatch) {
  const Csr a = poisson1d(4);
  const Vector b(5, 1.0);
  BlockAsyncOptions o;
  o.num_devices = 2;
  o.transfer = gpusim::TransferOptions{};
  EXPECT_THROW((void)block_async_solve(a, b, o), std::invalid_argument);
}

}  // namespace
}  // namespace bars
