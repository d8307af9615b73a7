/// End-to-end telemetry contract: every registry solver emits a
/// well-formed event stream, the metrics bridge agrees with the event
/// counts, and attaching an observer never perturbs the iterate (the
/// serial-vs-parallel bit-identity guarantee extends to observed runs).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/block_async.hpp"
#include "core/registry.hpp"
#include "core/silent_error.hpp"
#include "matrices/generators.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/sinks.hpp"

namespace bars {
namespace {

class ObservedRegistrySolvers : public ::testing::TestWithParam<std::string> {
};

/// Round-trip every registered solver with a recording observer and
/// assert the stream invariants from telemetry/events.hpp.
TEST_P(ObservedRegistrySolvers, EventStreamInvariantsHold) {
  const Csr a = fv_like(15, 0.8);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.01 * double(i);

  telemetry::RecordingObserver rec;
  telemetry::MetricsRegistry registry;
  telemetry::MetricsObserver metrics(registry);
  telemetry::MultiObserver multi;
  multi.add(&rec);
  multi.add(&metrics);

  RegistrySolveOptions o;
  o.solve.max_iters = 20000;
  o.solve.tol = 1e-11;
  o.block_size = 32;
  o.local_iters = 2;
  o.num_threads = 2;
  o.solve.telemetry.observer = &multi;
  o.solve.telemetry.metrics = &registry;
  const SolveResult r = find_solver(GetParam())(a, b, o);
  ASSERT_TRUE(r.ok()) << GetParam();

  // start/finish pairing: exactly one each, start precedes everything.
  ASSERT_EQ(rec.starts.size(), 1u) << GetParam();
  ASSERT_EQ(rec.finishes.size(), 1u) << GetParam();
  EXPECT_EQ(rec.starts[0].rows, a.rows());
  EXPECT_EQ(rec.starts[0].nnz, a.nnz());
  EXPECT_EQ(rec.finishes[0].status, r.status);
  EXPECT_EQ(rec.finishes[0].iterations, r.iterations);

  // Iteration indices are monotone increasing starting at 0.
  ASSERT_GE(rec.iterations.size(), 1u) << GetParam();
  EXPECT_EQ(rec.iterations.front().iteration, 0);
  for (std::size_t i = 1; i < rec.iterations.size(); ++i) {
    EXPECT_LT(rec.iterations[i - 1].iteration, rec.iterations[i].iteration)
        << GetParam() << " at event " << i;
  }

  // Metrics bridge agrees with the raw event stream.
  EXPECT_EQ(registry.counter("solve_starts").value(), 1u);
  EXPECT_EQ(registry.counter("solve_iterations").value(),
            rec.iterations.size());
  EXPECT_EQ(registry.counter("block_commits").value(), rec.commits.size());
  EXPECT_EQ(registry.histogram("commit_staleness", {}).total(),
            rec.commits.size());

  // When the solver emits per-commit events, the finish summary must
  // agree with the stream. (thread-async reports a commit total in the
  // summary but has no per-commit stream — its workers run outside the
  // serial-callback context.)
  if (!rec.commits.empty()) {
    EXPECT_EQ(rec.finishes[0].block_commits,
              static_cast<index_t>(rec.commits.size()))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, ObservedRegistrySolvers,
    ::testing::Values("jacobi", "scaled-jacobi", "gauss-seidel",
                      "symmetric-gs", "sor", "cg", "gmres", "pcg-jacobi",
                      "fcg-jacobi", "fcg-async", "block-jacobi",
                      "block-async", "thread-async", "mg", "mg-async",
                      "fcg-mg"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

/// The block-async executor emits one commit event per completed block
/// execution, in deterministic order; generations count up per block.
TEST(BlockCommitStream, MatchesExecutorBookkeeping) {
  const Csr a = fv_like(15, 0.8);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  telemetry::RecordingObserver rec;
  BlockAsyncOptions o;
  o.solve.max_iters = 30;
  o.solve.tol = 0.0;
  o.block_size = 32;
  o.local_iters = 2;
  o.solve.telemetry.observer = &rec;
  const BlockAsyncResult r = block_async_solve(a, b, o);

  index_t total_execs = 0;
  for (const index_t e : r.block_executions) total_execs += e;
  ASSERT_GT(total_execs, 0);
  EXPECT_EQ(static_cast<index_t>(rec.commits.size()), total_execs);

  // Generations per block are 0,1,2,... in commit order.
  std::vector<index_t> next_gen(r.block_executions.size(), 0);
  for (const telemetry::BlockCommitEvent& ev : rec.commits) {
    ASSERT_LT(static_cast<std::size_t>(ev.block), next_gen.size());
    EXPECT_EQ(ev.generation, next_gen[static_cast<std::size_t>(ev.block)]);
    ++next_gen[static_cast<std::size_t>(ev.block)];
  }

  // TelemetryOptions::block_commits = false mutes only the commit
  // stream; iteration and start/finish events still flow.
  telemetry::RecordingObserver muted;
  o.solve.telemetry.observer = &muted;
  o.solve.telemetry.block_commits = false;
  (void)block_async_solve(a, b, o);
  EXPECT_EQ(muted.commits.size(), 0u);
  EXPECT_EQ(muted.starts.size(), 1u);
  EXPECT_GE(muted.iterations.size(), 1u);
}

/// Multi-GPU runs go through the one block-async front-end: the start
/// event names "block-async" and carries the commit-pool worker count,
/// not the device count.
TEST(FrontEndTelemetry, MultiDeviceRunReportsBlockAsync) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  telemetry::RecordingObserver rec;
  BlockAsyncOptions o;
  o.num_devices = 2;
  o.transfer = gpusim::TransferOptions{gpusim::TransferScheme::kAMC};
  o.num_workers = 3;
  o.block_size = 16;
  o.local_iters = 2;
  o.solve.max_iters = 400;
  o.solve.tol = 1e-10;
  o.solve.telemetry.observer = &rec;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok());
  EXPECT_GT(r.num_transfers, 0);

  ASSERT_EQ(rec.starts.size(), 1u);
  EXPECT_STREQ(rec.starts[0].solver, "block-async");
  EXPECT_EQ(rec.starts[0].num_workers, 3);
  EXPECT_EQ(rec.starts[0].num_blocks, 9);
  EXPECT_EQ(rec.starts[0].time_domain, telemetry::TimeDomain::kVirtual);
  ASSERT_EQ(rec.finishes.size(), 1u);
  EXPECT_EQ(rec.finishes[0].status, r.solve.status);
  EXPECT_EQ(rec.finishes[0].iterations, r.solve.iterations);
  EXPECT_EQ(rec.finishes[0].virtual_time, r.virtual_time);
  EXPECT_EQ(rec.finishes[0].block_commits,
            static_cast<index_t>(rec.commits.size()));
}

/// Silent-error runs are block-async runs with a wrapped kernel, so they
/// bracket their event stream with start and finish like any other.
TEST(FrontEndTelemetry, SdcRunEmitsStartAndFinish) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  telemetry::RecordingObserver rec;
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 5;
  o.solve.max_iters = 500;
  o.solve.tol = 1e-12;
  o.solve.telemetry.observer = &rec;
  SilentErrorPlan sdc;
  sdc.at = 8;
  sdc.magnitude = 1e8;
  const SdcRunResult r = block_async_solve_with_sdc(a, b, o, sdc);
  ASSERT_TRUE(r.report.detected);

  ASSERT_EQ(rec.starts.size(), 1u);
  EXPECT_STREQ(rec.starts[0].solver, "block-async");
  EXPECT_EQ(rec.starts[0].num_workers, 0);
  ASSERT_EQ(rec.finishes.size(), 1u);
  EXPECT_EQ(rec.finishes[0].status, r.solve.solve.status);
  EXPECT_EQ(rec.finishes[0].iterations, r.solve.solve.iterations);
  EXPECT_EQ(rec.finishes[0].final_residual, r.solve.solve.final_residual);
}

/// PR 2's bit-identity contract survives observation: the parallel
/// commit path with an observer attached reproduces the serial
/// unobserved iterate exactly, and the serial and parallel observed
/// event streams are identical.
TEST(BitIdentity, ObserverDoesNotPerturbParallelCommits) {
  const Csr a = fv_like(31, 0.4);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  BlockAsyncOptions o;
  o.solve.max_iters = 40;
  o.solve.tol = 1e-13;
  o.block_size = 64;
  o.local_iters = 2;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;

  o.num_workers = 0;
  const BlockAsyncResult plain = block_async_solve(a, b, o);

  telemetry::RecordingObserver serial_rec;
  o.solve.telemetry.observer = &serial_rec;
  const BlockAsyncResult serial = block_async_solve(a, b, o);

  telemetry::RecordingObserver par_rec;
  o.num_workers = 4;
  o.solve.telemetry.observer = &par_rec;
  const BlockAsyncResult par = block_async_solve(a, b, o);

  // Observation changes nothing about the math.
  EXPECT_EQ(plain.solve.x, serial.solve.x);
  EXPECT_EQ(plain.solve.residual_history, serial.solve.residual_history);
  // Parallel commit path with observer == serial path, bitwise.
  EXPECT_EQ(serial.solve.x, par.solve.x);
  EXPECT_EQ(serial.solve.residual_history, par.solve.residual_history);
  EXPECT_EQ(serial.solve.status, par.solve.status);

  // The commit event stream is part of the deterministic contract.
  ASSERT_EQ(serial_rec.commits.size(), par_rec.commits.size());
  for (std::size_t i = 0; i < serial_rec.commits.size(); ++i) {
    EXPECT_EQ(serial_rec.commits[i].block, par_rec.commits[i].block);
    EXPECT_EQ(serial_rec.commits[i].generation, par_rec.commits[i].generation);
    EXPECT_EQ(serial_rec.commits[i].virtual_time,
              par_rec.commits[i].virtual_time);
    EXPECT_EQ(serial_rec.commits[i].staleness, par_rec.commits[i].staleness);
  }
}

/// Golden-schema check for the JSONL sink on a real solve: every line
/// is a single object tagged with its event type, and the stream is
/// bracketed by exactly one start and one finish.
TEST(JsonLinesSchema, RealSolveStream) {
  const Csr a = fv_like(15, 0.8);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  std::ostringstream os;
  telemetry::JsonLinesSink sink(os);
  BlockAsyncOptions o;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-10;
  o.block_size = 32;
  o.local_iters = 2;
  o.solve.telemetry.observer = &sink;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok());

  std::istringstream lines(os.str());
  std::string line;
  std::vector<std::string> kinds;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const auto tag = line.find("\"event\":\"");
    ASSERT_NE(tag, std::string::npos) << line;
    const auto from = tag + 9;
    kinds.push_back(line.substr(from, line.find('"', from) - from));
  }
  ASSERT_GE(kinds.size(), 3u);
  EXPECT_EQ(kinds.front(), "start");
  EXPECT_EQ(kinds.back(), "finish");
  int starts = 0, finishes = 0, iterations = 0, commits = 0;
  for (const std::string& k : kinds) {
    if (k == "start") ++starts;
    if (k == "finish") ++finishes;
    if (k == "iteration") ++iterations;
    if (k == "block_commit") ++commits;
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(finishes, 1);
  EXPECT_GE(iterations, 1);
  EXPECT_GT(commits, 0);
  EXPECT_EQ(static_cast<std::size_t>(starts + finishes + iterations + commits),
            kinds.size());
}

}  // namespace
}  // namespace bars
