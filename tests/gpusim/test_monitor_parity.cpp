/// The verified stopping test must be invisible in the results: a run
/// with history off (where the monitor may skip exact residual checks
/// on the per-block estimate) has to stop at the same boundary with the
/// same verdict, iterate and final residual as a run that checks the
/// exact residual at every boundary. And the skipping must actually
/// happen, or the estimate buys nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend/registry.hpp"
#include "core/block_async.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "matrices/generators.hpp"

namespace bars {
namespace {

/// The parity grid's matrices, one ctest entry each.
const char* const kMatrices[] = {"fv48",   "fv100",  "tref2000", "chem08",
                                 "chem03", "spd1_5", "spd6",     "spd20"};

Csr parity_matrix(const std::string& name) {
  if (name == "fv48") return fv_like(48, fv_reaction_for_rho(48, 0.8541));
  if (name == "fv100") return fv_like(100, fv_reaction_for_rho(100, 0.8541));
  if (name == "tref2000") return trefethen(2000);
  if (name == "chem08") return chem97ztz_like(2000, 0.8);
  if (name == "chem03") return chem97ztz_like(2000, 0.3);
  if (name == "spd1_5") return random_spd(2000, 6, 1.5, 7);
  if (name == "spd6") return random_spd(2000, 6, 6.0, 7);
  return random_spd(2000, 6, 20.0, 7);
}

Vector rhs_for(const Csr& a) {
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.5 * static_cast<value_t>(i % 7);
  }
  return b;
}

/// Solve twice, history on (exact every boundary) and off, and require
/// bit-identical outcomes.
void expect_parity(const Csr& a, const Vector& b, BlockAsyncOptions o,
                   const std::string& label) {
  o.solve.record_history = true;
  const BlockAsyncResult exact = block_async_solve(a, b, o);
  o.solve.record_history = false;
  const BlockAsyncResult gated = block_async_solve(a, b, o);
  EXPECT_EQ(gated.solve.status, exact.solve.status) << label;
  EXPECT_EQ(gated.solve.iterations, exact.solve.iterations) << label;
  EXPECT_EQ(gated.solve.final_residual, exact.solve.final_residual) << label;
  EXPECT_TRUE(gated.solve.x == exact.solve.x) << label;
  EXPECT_EQ(gated.block_executions, exact.block_executions) << label;
}

class MonitorParityGrid : public ::testing::TestWithParam<const char*> {};

/// Every backend x schedule x k x tol x seed on one matrix.
TEST_P(MonitorParityGrid, HistoryOffMatchesExactEveryBoundary) {
  const Csr a = parity_matrix(GetParam());
  const Vector b = rhs_for(a);
  const gpusim::SchedulePolicy policies[] = {
      gpusim::SchedulePolicy::kRoundRobin, gpusim::SchedulePolicy::kJittered,
      gpusim::SchedulePolicy::kShuffled};
  for (const std::string& backend : backend::backend_names()) {
    for (const gpusim::SchedulePolicy policy : policies) {
      for (const index_t k : {1, 5}) {
        for (const value_t tol : {1e-6, 1e-10, 1e-12}) {
          for (const std::uint64_t seed : {1, 2, 3}) {
            BlockAsyncOptions o;
            o.backend = backend;
            o.block_size = 128;
            o.local_iters = k;
            o.policy = policy;
            o.seed = seed;
            o.solve.tol = tol;
            o.solve.max_iters = 2000;
            expect_parity(a, b, o,
                          backend + " policy " +
                              std::to_string(static_cast<int>(policy)) +
                              " k " + std::to_string(k) + " tol " +
                              std::to_string(tol) + " seed " +
                              std::to_string(seed));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, MonitorParityGrid, ::testing::ValuesIn(kMatrices),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

/// The estimate lags a growing residual by about one iteration, so a
/// diverging run must still be caught at the same boundary: the
/// divergence side of the gate is calibrated too.
TEST(MonitorParity, DivergingRunsStopAtTheSameBoundary) {
  const gpusim::SchedulePolicy policies[] = {
      gpusim::SchedulePolicy::kRoundRobin, gpusim::SchedulePolicy::kJittered,
      gpusim::SchedulePolicy::kShuffled};
  for (const value_t rho : {1.1, 2.5}) {
    const Csr a = structural_like(30, structural_diag_for_rho(30, rho));
    const Vector b = rhs_for(a);
    for (const gpusim::SchedulePolicy policy : policies) {
      for (const index_t k : {1, 5}) {
        for (const value_t limit : {1e30, 1e3}) {
          for (const std::uint64_t seed : {1, 2}) {
            BlockAsyncOptions o;
            o.block_size = 64;
            o.local_iters = k;
            o.policy = policy;
            o.seed = seed;
            o.solve.tol = 1e-10;
            o.solve.max_iters = 3000;
            o.solve.divergence_limit = limit;
            expect_parity(a, b, o,
                          "rho " + std::to_string(rho) + " policy " +
                              std::to_string(static_cast<int>(policy)) +
                              " k " + std::to_string(k) + " limit " +
                              std::to_string(limit) + " seed " +
                              std::to_string(seed));
          }
        }
      }
    }
  }
}

/// The parallel-commit path stages each batch member's contribution
/// and publishes it in event order, so a 4-worker history-off run sees
/// the serial estimates and matches the exact serial run.
TEST(MonitorParity, ParallelCommitMatchesSerialExact) {
  const Csr a = fv_like(100, fv_reaction_for_rho(100, 0.8541));
  const Vector b = rhs_for(a);
  BlockAsyncOptions o;
  o.block_size = 128;
  o.local_iters = 5;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.solve.tol = 1e-10;
  o.solve.max_iters = 2000;
  o.solve.record_history = true;
  const BlockAsyncResult exact = block_async_solve(a, b, o);
  o.solve.record_history = false;
  o.num_workers = 4;
  const BlockAsyncResult gated = block_async_solve(a, b, o);
  EXPECT_EQ(gated.solve.status, exact.solve.status);
  EXPECT_EQ(gated.solve.iterations, exact.solve.iterations);
  EXPECT_EQ(gated.solve.final_residual, exact.solve.final_residual);
  EXPECT_TRUE(gated.solve.x == exact.solve.x);
}

/// A kernel that leaves x alone and reports a scripted contribution per
/// (block, visit), so the estimate at each boundary depends on exactly
/// which commits the monitor has seen.
class ScriptedReportKernel final : public gpusim::BlockKernel {
 public:
  [[nodiscard]] index_t num_blocks() const override { return 4; }
  [[nodiscard]] index_t num_rows() const override { return 8; }
  [[nodiscard]] std::span<const index_t> halo(index_t) const override {
    return {};
  }
  [[nodiscard]] std::pair<index_t, index_t> rows(index_t b) const override {
    return {2 * b, 2 * b + 2};
  }
  void update(index_t /*block*/, std::span<const value_t>,
              std::span<value_t>,
              const gpusim::ExecContext& ctx) const override {
    if (ctx.residual_sq == nullptr) return;
    // Calibrate on 1, then flip every contribution between 1 and 1/4
    // from visit to visit: whether the estimate clears the skip
    // threshold depends on how many of the blocks the monitor has
    // seen are on a large visit.
    const index_t g = ctx.block_generation;
    *ctx.residual_sq = g < 3 || g % 2 == 0 ? 1.0 : 0.25;
  }
};

/// The parallel commit path runs a whole same-time batch before
/// replaying it, and a global-iteration boundary can fall inside the
/// batch (3 slots, 4 blocks). Contributions are staged and published
/// in event order, so every boundary sees the serial loop's estimate
/// and the same boundaries get exact checks.
TEST(MonitorParity, ParallelPublishesContributionsInEventOrder) {
  const ScriptedReportKernel kernel;
  gpusim::ExecutorOptions o;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.concurrent_slots = 3;
  // Calibration gives R = 2 (estimate 2, exact 1), so a boundary is
  // skipped while kappa * estimate > 2 * R * tol = 0.75.
  o.stopping.tol = 0.1875;
  o.stopping.max_global_iters = 60;
  o.stopping.record_history = false;
  std::vector<int> calls;  // calls per run
  for (const index_t workers : {0, 4}) {
    o.num_workers = workers;
    gpusim::AsyncExecutor ex(kernel, o);
    Vector x(8, 0.0);
    int n = 0;
    const gpusim::ExecutorResult r = ex.run(x, [&](const Vector&) {
      ++n;
      return 1.0;
    });
    EXPECT_EQ(r.global_iterations, 60);
    calls.push_back(n);
  }
  EXPECT_EQ(calls[0], calls[1]);
  // Both kinds of boundary occur, so the comparison means something.
  EXPECT_GT(calls[0], 1 + 3 + 1);
  EXPECT_LT(calls[0], 1 + 60);
}

/// Kernels other than the plain Jacobi sweep also report: local
/// Gauss-Seidel (residual of the partly relaxed block) and overlapping
/// subdomains (owned rows only).
TEST(MonitorParity, GaussSeidelAndOverlapKernels) {
  const Csr a = fv_like(48, fv_reaction_for_rho(48, 0.8541));
  const Vector b = rhs_for(a);
  for (const std::uint64_t seed : {1, 2, 3}) {
    BlockAsyncOptions o;
    o.block_size = 128;
    o.local_iters = 3;
    o.seed = seed;
    o.solve.tol = 1e-10;
    o.solve.max_iters = 2000;
    o.local_sweep = LocalSweep::kGaussSeidel;
    expect_parity(a, b, o, "gauss-seidel seed " + std::to_string(seed));
    o.local_sweep = LocalSweep::kJacobi;
    o.overlap = 8;
    expect_parity(a, b, o, "overlap seed " + std::to_string(seed));
  }
}

/// Multi-device runs: with a transfer scheme each block reads its
/// device's view, so contributions describe that view, not x. The
/// calibration absorbs the difference. A transfer scheme also sets the
/// per-device generation skew gate to 4, which lets DC/DK views go
/// stale for longer; the second matrix puts that against a
/// fast-contracting residual.
TEST(MonitorParity, MultiDeviceTransferSchemes) {
  for (const std::string name : {"tref2000", "fv48"}) {
    const Csr a = parity_matrix(name);
    const Vector b = rhs_for(a);
    for (const gpusim::TransferScheme scheme :
         {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
          gpusim::TransferScheme::kDK}) {
      for (const index_t k : {1, 5}) {
        for (const std::uint64_t seed : {1, 2, 3}) {
          BlockAsyncOptions o;
          o.block_size = 128;
          o.local_iters = k;
          o.seed = seed;
          o.num_devices = 3;
          o.transfer = gpusim::TransferOptions{};
          o.transfer->scheme = scheme;
          o.solve.tol = 1e-12;
          o.solve.max_iters = 3000;
          expect_parity(a, b, o,
                        name + " scheme " +
                            std::to_string(static_cast<int>(scheme)) +
                            " k " + std::to_string(k) + " seed " +
                            std::to_string(seed));
        }
      }
    }
  }
}

/// Heavy stragglers: a delayed block commits a contribution computed
/// from a much older halo, so its stale term can dominate the estimate
/// — the case most likely to push estimate / exact above the
/// calibrated maximum and make a run skip the boundary where it has
/// already converged.
TEST(MonitorParity, HeavyStragglersStopAtTheSameBoundary) {
  for (const std::string name : {"fv48", "tref2000", "chem03"}) {
    const Csr a = parity_matrix(name);
    const Vector b = rhs_for(a);
    for (const value_t prob : {0.2, 0.5}) {
      for (const value_t factor : {8.0, 30.0}) {
        for (const index_t k : {1, 5}) {
          for (const value_t tol : {1e-6, 1e-12}) {
            for (const std::uint64_t seed : {1, 2, 3}) {
              BlockAsyncOptions o;
              o.block_size = 128;
              o.local_iters = k;
              o.policy = gpusim::SchedulePolicy::kJittered;
              o.straggler_prob = prob;
              o.straggler_factor = factor;
              o.seed = seed;
              o.solve.tol = tol;
              o.solve.max_iters = 5000;
              expect_parity(a, b, o,
                            name + " prob " + std::to_string(prob) +
                                " factor " + std::to_string(factor) +
                                " k " + std::to_string(k) + " tol " +
                                std::to_string(tol) + " seed " +
                                std::to_string(seed));
            }
          }
        }
      }
    }
  }
}

/// The gate is live: with history off, a round-robin async-(5) fv run
/// that takes dozens of global iterations computes the exact residual
/// only a handful of times (initial, calibration, confirmation).
TEST(MonitorParity, GateSkipsMostExactChecks) {
  const Csr a = fv_like(48, fv_reaction_for_rho(48, 0.8541));
  const Vector b = rhs_for(a);
  const std::unique_ptr<backend::BlockSweepKernel> kernel =
      backend::build_kernel("scalar", a, b,
                            RowPartition::uniform(a.rows(), 128), {5});
  gpusim::ExecutorOptions o;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.stopping.tol = 1e-10;
  o.stopping.max_global_iters = 2000;
  o.stopping.record_history = false;
  gpusim::AsyncExecutor ex(*kernel, o);
  Vector x(b.size(), 0.0);
  int calls = 0;
  const gpusim::ExecutorResult r = ex.run(x, [&](const Vector& v) {
    ++calls;
    return relative_residual(a, b, v);
  });
  EXPECT_EQ(r.status, SolverStatus::kConverged);
  EXPECT_GE(r.global_iterations, 40);
  EXPECT_LE(calls, 8);
  EXPECT_LE(r.residual_history.back(), o.stopping.tol);

  // History on: exact every boundary, same stop.
  o.stopping.record_history = true;
  gpusim::AsyncExecutor exact(*kernel, o);
  Vector y(b.size(), 0.0);
  calls = 0;
  const gpusim::ExecutorResult e = exact.run(y, [&](const Vector& v) {
    ++calls;
    return relative_residual(a, b, v);
  });
  EXPECT_EQ(calls, e.global_iterations + 1);
  EXPECT_EQ(e.global_iterations, r.global_iterations);
  EXPECT_TRUE(x == y);
}

}  // namespace
}  // namespace bars
