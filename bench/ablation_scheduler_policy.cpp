/// Ablation (beyond the paper): how the simulated block-scheduling
/// policy affects convergence — deterministic round-robin vs jittered
/// (GPU-like) vs per-sweep shuffled, across the update-order freedom
/// Chazan-Miranker allows.

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"

using namespace bars;

namespace {

index_t run_policy(const TestProblem& p, const Vector& b,
                   gpusim::SchedulePolicy policy, std::uint64_t seed) {
  BlockAsyncOptions o;
  o.block_size = 448;
  o.local_iters = 5;
  o.policy = policy;
  o.seed = seed;
  o.matrix_name = p.name;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-10;
  const BlockAsyncResult r = block_async_solve(p.matrix, b, o);
  return r.solve.ok() ? r.solve.iterations : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "ablation_scheduler_policy", {"ufmc"}))
    return rc;
  bench::banner("Ablation — scheduler policy vs convergence",
                "Chazan-Miranker update-order freedom (paper Section 2.2)",
                bench::Timings::kVirtual);

  for (PaperMatrix id : {PaperMatrix::kFv1, PaperMatrix::kChem97ZtZ,
                         PaperMatrix::kTrefethen2000}) {
    const TestProblem p = make_paper_problem(id, bench::ufmc_dir(args));
    const Vector b = bench::unit_rhs(p.matrix.rows());
    std::cout << "--- " << p.name
              << " (async-(5) global iterations to 1e-10) ---\n";
    report::Table t({"seed", "round-robin", "jittered", "shuffled"});
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      t.add_row({report::fmt_int(static_cast<long long>(seed)),
                 report::fmt_int(run_policy(
                     p, b, gpusim::SchedulePolicy::kRoundRobin, seed)),
                 report::fmt_int(run_policy(
                     p, b, gpusim::SchedulePolicy::kJittered, seed)),
                 report::fmt_int(run_policy(
                     p, b, gpusim::SchedulePolicy::kShuffled, seed))});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: round-robin is seed-independent; jittered and "
               "shuffled vary\nmildly with the seed but converge in a "
               "similar number of iterations\n(asynchronous convergence is "
               "schedule-robust when rho(|B|) < 1).\n";
  return 0;
}
