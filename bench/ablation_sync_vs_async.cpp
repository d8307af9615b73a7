/// Ablation: the cost of chaos. Compares synchronous two-stage
/// block-Jacobi-(k) with async-(k) — same blocks, same local sweeps,
/// only the synchronization differs. Iteration counts quantify the
/// convergence price of asynchrony; virtual time per iteration
/// quantifies what the paper buys back on hardware (Table 5: async
/// iterations are cheaper than synchronized ones).

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"
#include "core/block_jacobi.hpp"
#include "gpusim/cost_model.hpp"

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "ablation_sync_vs_async", {"ufmc"}))
    return rc;
  bench::banner("Ablation — synchronous two-stage vs asynchronous",
                "the paper's central trade-off (Sections 2.2, 4.3)",
                bench::Timings::kVirtual);

  const gpusim::CostModel model = gpusim::CostModel::calibrated_to_paper();

  for (PaperMatrix id : {PaperMatrix::kFv1, PaperMatrix::kChem97ZtZ,
                         PaperMatrix::kTrefethen2000}) {
    const TestProblem p = make_paper_problem(id, bench::ufmc_dir(args));
    const Vector b = bench::unit_rhs(p.matrix.rows());
    const gpusim::MatrixShape shape{p.name, p.matrix.rows(),
                                    p.matrix.nnz()};
    std::cout << "--- " << p.name << " (to 1e-10) ---\n";
    report::Table t({"k", "sync iters", "async iters", "chaos penalty",
                     "sync time[s]*", "async time[s]"});
    for (index_t k : {1, 5}) {
      BlockJacobiOptions so;
      so.block_size = 448;
      so.local_iters = k;
      so.solve.max_iters = 3000;
      so.solve.tol = 1e-10;
      const SolveResult sync = block_jacobi_solve(p.matrix, b, so);

      BlockAsyncOptions ao;
      ao.block_size = 448;
      ao.local_iters = k;
      ao.matrix_name = p.name;
      ao.solve = so.solve;
      const BlockAsyncResult async = block_async_solve(p.matrix, b, ao);

      // Synchronized iterations cost as much as a Jacobi GPU iteration
      // plus the local-sweep overhead (barrier per iteration); async
      // iterations use the calibrated async cost.
      const value_t sync_t =
          static_cast<value_t>(sync.iterations) *
          (model.gpu_jacobi_iteration(shape) +
           static_cast<value_t>(k - 1) *
               (model.gpu_block_async_iteration(shape, 2) -
                model.gpu_block_async_iteration(shape, 1)));
      const value_t async_t = async.solve.time_history.empty()
                                  ? 0.0
                                  : async.solve.time_history.back();
      const double penalty =
          sync.ok() && async.solve.ok()
              ? static_cast<double>(async.solve.iterations) /
                    static_cast<double>(sync.iterations)
              : 0.0;
      t.add_row({report::fmt_int(k),
                 sync.ok() ? report::fmt_int(sync.iterations) : "n/c",
                 async.solve.ok()
                     ? report::fmt_int(async.solve.iterations)
                     : "n/c",
                 report::fmt_fixed(penalty, 2) + "x",
                 report::fmt_fixed(sync_t, 3),
                 report::fmt_fixed(async_t, 3)});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "(*) synchronized time modelled as Jacobi-GPU iterations "
               "plus local-sweep\noverhead. Expected: asynchrony costs a "
               "modest iteration-count penalty but\nwins in time because "
               "each iteration avoids the barrier.\n";
  return 0;
}
