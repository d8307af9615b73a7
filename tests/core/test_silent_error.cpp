#include "core/silent_error.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/cancel.hpp"
#include "eigen/power_iteration.hpp"
#include "matrices/generators.hpp"
#include "stats/convergence.hpp"

namespace bars {
namespace {

std::vector<value_t> geometric(value_t start, value_t ratio, int n) {
  std::vector<value_t> h;
  value_t v = start;
  for (int i = 0; i < n; ++i) {
    h.push_back(v);
    v *= ratio;
  }
  return h;
}

TEST(Detector, CleanGeometricHistoryNotFlagged) {
  const auto rep = detect_silent_error(geometric(1.0, 0.5, 40));
  EXPECT_FALSE(rep.detected);
}

TEST(Detector, JumpFlagged) {
  auto h = geometric(1.0, 0.5, 20);
  h.push_back(h.back() * 1e5);  // corruption spike
  for (int i = 0; i < 5; ++i) h.push_back(h.back() * 0.5);
  const auto rep = detect_silent_error(h);
  ASSERT_TRUE(rep.detected);
  EXPECT_EQ(rep.at_iteration, 20);
  EXPECT_GT(rep.jump_ratio, 1e4);
}

TEST(Detector, StallFlagged) {
  auto h = geometric(1.0, 0.5, 15);
  for (int i = 0; i < 15; ++i) h.push_back(h.back());  // stagnation
  const auto rep = detect_silent_error(h);
  EXPECT_TRUE(rep.detected);
}

TEST(Detector, NanFlagged) {
  auto h = geometric(1.0, 0.5, 8);
  h.push_back(std::nan(""));
  EXPECT_TRUE(detect_silent_error(h).detected);
}

TEST(Detector, RoundingFloorNotFlagged) {
  auto h = geometric(1.0, 0.1, 16);        // down to 1e-15
  for (int i = 0; i < 20; ++i) h.push_back(8e-16);  // plateau at floor
  EXPECT_FALSE(detect_silent_error(h).detected);
}

TEST(Detector, ShortHistoryNotFlagged) {
  EXPECT_FALSE(detect_silent_error({1.0}).detected);
  EXPECT_FALSE(detect_silent_error({}).detected);
}

TEST(Detector, HistoryEntirelyAtFloorNotFlagged) {
  // A run that starts (and stays) at the rounding floor offers nothing
  // to judge; it must not be reported as a stall.
  const std::vector<value_t> h(30, 5e-14);
  EXPECT_FALSE(detect_silent_error(h).detected);
}

TEST(Detector, WarmupLongerThanHistoryNotFlagged) {
  DetectorOptions o;
  o.warmup = 100;
  auto h = geometric(1.0, 0.5, 10);
  h.push_back(h.back() * 1e6);  // jump inside the warmup window
  EXPECT_FALSE(detect_silent_error(h, o).detected);
}

TEST(Detector, DegenerateOptionsAreSafe) {
  // Negative warmup / stall_window clamp to "never arm that check"
  // rather than UB; a clean decay stays clean, an obvious jump is
  // still caught once warmup (clamped to 0) has passed.
  DetectorOptions o;
  o.warmup = -5;
  o.stall_window = -1;
  EXPECT_FALSE(detect_silent_error(geometric(1.0, 0.5, 20), o).detected);
  auto h = geometric(1.0, 0.5, 10);
  h.push_back(h.back() * 1e6);
  EXPECT_TRUE(detect_silent_error(h, o).detected);
}

TEST(Detector, NonPositiveSamplesSkippedNotFlagged) {
  // An exact zero residual (direct hit of the solution) is not an
  // anomaly.
  std::vector<value_t> h = geometric(1.0, 0.5, 10);
  h.push_back(0.0);
  h.push_back(0.0);
  EXPECT_FALSE(detect_silent_error(h).detected);
}

TEST(SdcRun, CleanRunNotFlaggedAndConverges) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 5;
  o.solve.max_iters = 500;
  o.solve.tol = 1e-12;
  const SdcRunResult r = block_async_solve_with_sdc(a, b, o, std::nullopt);
  EXPECT_TRUE(r.solve.solve.ok());
  EXPECT_FALSE(r.report.detected);
}

TEST(SdcRun, CorruptionDetectedAsJump) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 5;
  o.solve.max_iters = 500;
  o.solve.tol = 1e-12;
  SilentErrorPlan sdc;
  sdc.at = 8;
  sdc.magnitude = 1e8;
  const SdcRunResult r = block_async_solve_with_sdc(a, b, o, sdc);
  ASSERT_TRUE(r.report.detected);
  EXPECT_NEAR(static_cast<double>(r.report.at_iteration), 9.0, 2.0);
  EXPECT_GT(r.report.jump_ratio, 100.0);
}

TEST(SdcRun, SolverHealsAfterCorruption) {
  // The asynchronous iteration is self-stabilizing: once corrupted
  // values are relaxed away, it still converges to the true solution
  // (this is *why* silent errors need detection — they only cost time).
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 5;
  o.solve.max_iters = 1000;
  o.solve.tol = 1e-12;
  SilentErrorPlan sdc;
  sdc.at = 8;
  sdc.magnitude = 1e8;
  const SdcRunResult r = block_async_solve_with_sdc(a, b, o, sdc);
  EXPECT_TRUE(r.solve.solve.ok());
  EXPECT_LE(relative_residual(a, b, r.solve.solve.x), 1e-11);
}

TEST(SdcRun, ParallelWorkersMatchSerial) {
  // The injector counts updates in mutable state, so it opts out of
  // parallel commits: a worker pool must leave the run bit-identical.
  // Round-robin timing puts many commits at the same virtual time, the
  // case the parallel path would batch.
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.block_size = 16;
  o.local_iters = 5;
  o.solve.max_iters = 500;
  o.solve.tol = 1e-12;
  SilentErrorPlan sdc;
  sdc.at = 8;
  sdc.magnitude = 1e8;
  const SdcRunResult serial = block_async_solve_with_sdc(a, b, o, sdc);
  o.num_workers = 4;
  const SdcRunResult parallel = block_async_solve_with_sdc(a, b, o, sdc);
  ASSERT_TRUE(serial.report.detected);
  EXPECT_EQ(parallel.solve.solve.x, serial.solve.solve.x);
  EXPECT_EQ(parallel.solve.solve.residual_history,
            serial.solve.solve.residual_history);
  EXPECT_EQ(parallel.solve.solve.time_history,
            serial.solve.solve.time_history);
  EXPECT_EQ(parallel.report.detected, serial.report.detected);
  EXPECT_EQ(parallel.report.at_iteration, serial.report.at_iteration);
  EXPECT_EQ(parallel.report.jump_ratio, serial.report.jump_ratio);
}

TEST(SdcRun, HonoursCancelToken) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  common::CancelToken token;
  token.request_cancel();
  BlockAsyncOptions o;
  o.block_size = 64;
  o.solve.max_iters = 500;
  o.solve.tol = 1e-300;  // unreachable: only the token can stop the run
  o.solve.cancel = &token;
  SilentErrorPlan sdc;
  sdc.at = 8;
  const SdcRunResult r = block_async_solve_with_sdc(a, b, o, sdc);
  EXPECT_EQ(r.solve.solve.status, SolverStatus::kAborted);
  EXPECT_LT(r.solve.solve.iterations, 500);
}

TEST(SdcRun, RejectsBadComponent) {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  SilentErrorPlan sdc;
  sdc.component = 99;
  EXPECT_THROW((void)block_async_solve_with_sdc(a, b, {}, sdc),
               std::invalid_argument);
}

TEST(AsyncRateBound, MeasuredRateBeatsWorstCase) {
  // Chazan-Miranker envelope: any schedule with bounded shift s
  // contracts at least as fast as rho(|B|)^{1/(1+s)} asymptotically.
  const Csr a = trefethen(300);
  const Vector b(300, 1.0);
  const value_t rho_abs = async_spectral_radius(a).value;
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 1;
  o.solve.max_iters = 200;
  o.solve.tol = 0.0;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  const value_t measured = contraction_factor(r.solve.residual_history, 80);
  const value_t bound =
      async_worst_case_rate(rho_abs, r.max_staleness);
  EXPECT_GT(measured, 0.0);
  EXPECT_LE(measured, bound + 0.02);
}

TEST(AsyncRateBound, Formula) {
  EXPECT_DOUBLE_EQ(async_worst_case_rate(0.81, 0), 0.81);
  EXPECT_NEAR(async_worst_case_rate(0.64, 1), 0.8, 1e-12);
  EXPECT_THROW((void)async_worst_case_rate(-0.1, 0), std::invalid_argument);
  EXPECT_THROW((void)async_worst_case_rate(0.5, -1), std::invalid_argument);
}

}  // namespace
}  // namespace bars
