/// Ablation (paper Section 4.1 discussion): effect of the block size on
/// convergence of async-(5). Larger blocks capture more matrix entries
/// in the local iterations and converge in fewer global iterations.

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"
#include "sparse/properties.hpp"

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "ablation_block_size", {"ufmc"}))
    return rc;
  bench::banner("Ablation — block size vs convergence",
                "paper Section 4.1 (block-size discussion)",
                bench::Timings::kVirtual);

  for (PaperMatrix id : {PaperMatrix::kFv1, PaperMatrix::kTrefethen2000}) {
    const TestProblem p = make_paper_problem(id, bench::ufmc_dir(args));
    const Vector b = bench::unit_rhs(p.matrix.rows());
    std::cout << "--- " << p.name << " ---\n";
    report::Table t({"block size", "off-block mass", "global iters to 1e-10",
                     "converged"});
    for (index_t bs : {32, 64, 128, 256, 448, 1024}) {
      BlockAsyncOptions o;
      o.block_size = bs;
      o.local_iters = 5;
      o.matrix_name = p.name;
      o.solve.max_iters = 1000;
      o.solve.tol = 1e-10;
      const BlockAsyncResult r = block_async_solve(p.matrix, b, o);
      t.add_row({report::fmt_int(bs),
                 report::fmt_fixed(off_block_mass(p.matrix, bs), 4),
                 report::fmt_int(r.solve.iterations),
                 r.solve.ok() ? "yes" : "no"});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: iterations decrease as the block size grows (more "
               "couplings handled locally), consistent with the paper's "
               "recommendation of larger blocks.\n";
  return 0;
}
