/// Multi-device runs of the discrete-event executor (paper Sections 3.4
/// and 4.6): every device runs the single-GPU model on its own blocks
/// and the transfer scheme decides when remote segments become visible.

#include <gtest/gtest.h>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "matrices/generators.hpp"
#include "resilience/scenario.hpp"
#include "sparse/partition.hpp"
#include "verify/invariants.hpp"

namespace bars::gpusim {
namespace {

struct Fixture {
  Csr a;
  Vector b;
  BlockJacobiKernel kernel;
  /// fv-type reaction-diffusion system on an m x m grid: well
  /// conditioned enough that every scheme converges within the budgets.
  explicit Fixture(index_t m = 12, index_t block = 16, index_t k = 2)
      : a(fv_like(m, 0.6)),
        b(static_cast<std::size_t>(a.rows()), 1.0),
        kernel(a, b, RowPartition::uniform(a.rows(), block), k) {}
  [[nodiscard]] value_t residual(const Vector& x) const {
    return relative_residual(a, b, x);
  }
};

ExecutorOptions multi(index_t devices, TransferScheme scheme) {
  ExecutorOptions o;
  o.num_devices = devices;
  o.transfer = TransferOptions{scheme};
  o.max_generation_skew = 4;
  return o;
}

ExecutorResult run_with(Fixture& s, TransferScheme scheme, index_t devices,
                        index_t max_iters = 5000, value_t tol = 1e-11) {
  ExecutorOptions o = multi(devices, scheme);
  o.stopping.max_global_iters = max_iters;
  o.stopping.tol = tol;
  o.seed = 77;
  AsyncExecutor ex(s.kernel, o);
  Vector x(s.b.size(), 0.0);
  return ex.run(x, [&](const Vector& v) { return s.residual(v); });
}

TEST(MultiDevice, AllSchemesConvergeSingleDevice) {
  Fixture s;
  for (auto scheme :
       {TransferScheme::kAMC, TransferScheme::kDC, TransferScheme::kDK}) {
    const auto r = run_with(s, scheme, 1);
    EXPECT_TRUE(r.ok()) << to_string(scheme);
  }
}

TEST(MultiDevice, AllSchemesConvergeOnFourDevices) {
  Fixture s;
  for (auto scheme :
       {TransferScheme::kAMC, TransferScheme::kDC, TransferScheme::kDK}) {
    const auto r = run_with(s, scheme, 4);
    EXPECT_TRUE(r.ok()) << to_string(scheme);
    EXPECT_LE(r.residual_history.back(), 1e-11) << to_string(scheme);
  }
}

TEST(MultiDevice, AmcTwoDevicesFasterThanOne) {
  Fixture s(16, 16, 2);
  const auto r1 = run_with(s, TransferScheme::kAMC, 1);
  const auto r2 = run_with(s, TransferScheme::kAMC, 2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(r2.virtual_time, r1.virtual_time);
}

TEST(MultiDevice, TransfersAccountedAmc) {
  Fixture s;
  const auto r = run_with(s, TransferScheme::kAMC, 2, 50, 0.0);
  // Every sweep: one upload + one download per peer, both host<->device.
  EXPECT_GT(r.num_transfers, 0);
  EXPECT_GT(r.bytes_host_device, 0.0);
  EXPECT_DOUBLE_EQ(r.bytes_device_device, 0.0);
}

TEST(MultiDevice, TransfersAccountedDc) {
  Fixture s;
  const auto r = run_with(s, TransferScheme::kDC, 2, 50, 0.0);
  EXPECT_GT(r.bytes_device_device, 0.0);
  EXPECT_DOUBLE_EQ(r.bytes_host_device, 0.0);
}

TEST(MultiDevice, DkHasNoBulkTransfersFromMaster) {
  Fixture s;
  const auto r1 = run_with(s, TransferScheme::kDK, 1, 50, 0.0);
  EXPECT_DOUBLE_EQ(r1.bytes_device_device, 0.0);
  const auto r2 = run_with(s, TransferScheme::kDK, 2, 50, 0.0);
  EXPECT_GT(r2.bytes_device_device, 0.0);  // remote sweep traffic accounting
}

TEST(MultiDevice, DeterministicGivenSeed) {
  Fixture s;
  const auto r1 = run_with(s, TransferScheme::kAMC, 3, 40, 0.0);
  const auto r2 = run_with(s, TransferScheme::kAMC, 3, 40, 0.0);
  ASSERT_EQ(r1.residual_history.size(), r2.residual_history.size());
  for (std::size_t i = 0; i < r1.residual_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.residual_history[i], r2.residual_history[i]);
  }
}

TEST(MultiDevice, ResultMatchesSolutionAcrossSchemes) {
  // All schemes must converge to the same solution of A x = b.
  Fixture s;
  const Vector ref = [&] {
    auto r = run_with(s, TransferScheme::kAMC, 1);
    Vector x(s.b.size(), 0.0);
    ExecutorOptions o = multi(1, TransferScheme::kAMC);
    o.stopping.tol = 1e-12;
    o.stopping.max_global_iters = 20000;
    AsyncExecutor ex(s.kernel, o);
    (void)ex.run(x, [&](const Vector& v) { return s.residual(v); });
    return x;
  }();
  for (auto scheme : {TransferScheme::kDC, TransferScheme::kDK}) {
    ExecutorOptions o = multi(3, scheme);
    o.stopping.tol = 1e-12;
    o.stopping.max_global_iters = 20000;
    AsyncExecutor ex(s.kernel, o);
    Vector x(s.b.size(), 0.0);
    (void)ex.run(x, [&](const Vector& v) { return s.residual(v); });
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], ref[i], 1e-9) << to_string(scheme) << " i=" << i;
    }
  }
}

TEST(MultiDevice, RejectsBadOptions) {
  Fixture s;
  ExecutorOptions o = multi(0, TransferScheme::kAMC);
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
  o.num_devices = 9;
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
  o.num_devices = 2;
  o.global_iteration_time = -1.0;
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
}

TEST(MultiDevice, MoreDevicesThanBlocksClamps) {
  Fixture s(6, 18, 1);  // n = 36: only 2 blocks
  const auto r = run_with(s, TransferScheme::kAMC, 4);
  EXPECT_TRUE(r.ok());
}

// Commit-ledger invariants on multi-device runs: every block's commits
// arrive with gapless generations and virtual time never runs
// backwards. The staleness bound stays off (0): skew is bounded only
// within a device, not across devices.
void expect_clean_ledger(const Fixture& s, ExecutorOptions o,
                         const std::string& label) {
  verify::CommitLedger ledger(s.kernel.num_blocks());
  o.telemetry.observer = &ledger;
  o.stopping.max_global_iters = 60;
  o.stopping.tol = 0.0;
  o.seed = 13;
  AsyncExecutor ex(s.kernel, o);
  Vector x(s.b.size(), 0.0);
  const auto r = ex.run(x, [&](const Vector& v) { return s.residual(v); });
  index_t commits = 0;
  for (index_t c : r.block_executions) commits += c;
  EXPECT_EQ(ledger.total_commits(), commits) << label;
  EXPECT_GE(r.global_iterations, 60) << label;
  for (const std::string& e : ledger.errors()) {
    ADD_FAILURE() << label << ": " << e;
  }
}

TEST(MultiDevice, CommitLedgerHoldsForEverySchemeAndDeviceCount) {
  Fixture s;
  for (auto scheme :
       {TransferScheme::kAMC, TransferScheme::kDC, TransferScheme::kDK}) {
    for (index_t d = 2; d <= 4; ++d) {
      expect_clean_ledger(
          s, multi(d, scheme),
          to_string(scheme) + " on " + std::to_string(d) + " devices");
    }
  }
}

TEST(MultiDevice, CommitLedgerHoldsThroughDropoutAndRejoin) {
  Fixture s;
  ExecutorOptions o = multi(3, TransferScheme::kAMC);
  o.scenario = resilience::FaultScenario().drop_device(/*at=*/5, /*device=*/1,
                                                        /*rejoin_after=*/10);
  expect_clean_ledger(s, o, "AMC dropout/rejoin");
}

}  // namespace
}  // namespace bars::gpusim
