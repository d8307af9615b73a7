/// Ablation (beyond the paper): local Jacobi vs local Gauss-Seidel
/// sweeps inside the blocks, and damped local sweeps — the knobs the
/// paper's Section 5 lists as open tuning questions.

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"

using namespace bars;

namespace {

index_t run(const TestProblem& p, const Vector& b, LocalSweep sweep,
            value_t omega, index_t k, bool adaptive = false) {
  BlockAsyncOptions o;
  o.block_size = 448;
  o.local_iters = k;
  o.local_sweep = sweep;
  o.local_omega = omega;
  o.adaptive_local_iters = adaptive;
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
          args, "ablation_local_sweep", {"ufmc"}))
    return rc;
  bench::banner("Ablation — local sweep type and damping",
                "paper Section 5 (tuning outlook)",
                bench::Timings::kVirtual);

  for (PaperMatrix id : {PaperMatrix::kFv1, PaperMatrix::kTrefethen2000}) {
    const TestProblem p = make_paper_problem(id, bench::ufmc_dir(args));
    const Vector b = bench::unit_rhs(p.matrix.rows());
    std::cout << "--- " << p.name
              << " (global iterations to 1e-10; -1 = not converged) ---\n";
    report::Table t({"local iters", "Jacobi", "Gauss-Seidel",
                     "Jacobi w=0.8", "SOR w=1.3", "adaptive<=k"});
    for (index_t k : {1, 2, 5, 8}) {
      t.add_row({report::fmt_int(k),
                 report::fmt_int(run(p, b, LocalSweep::kJacobi, 1.0, k)),
                 report::fmt_int(run(p, b, LocalSweep::kGaussSeidel, 1.0, k)),
                 report::fmt_int(run(p, b, LocalSweep::kJacobi, 0.8, k)),
                 report::fmt_int(
                     run(p, b, LocalSweep::kGaussSeidel, 1.3, k)),
                 report::fmt_int(
                     run(p, b, LocalSweep::kJacobi, 1.0, k, true))});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: local Gauss-Seidel converges at least as fast as\n"
               "local Jacobi per sweep; over-relaxation helps the strongly\n"
               "diagonal-block-dominated fv problems.\n";
  return 0;
}
