/// Ablation (paper Section 4.3 remark): "An improvement for this case
/// [Chem97ZtZ] could potentially be obtained by reordering." — apply
/// Reverse Cuthill-McKee and measure the async-(5) convergence gain.

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"
#include "sparse/properties.hpp"
#include "sparse/reorder.hpp"

using namespace bars;

namespace {

index_t iters_to_tol(const Csr& a, const Vector& b, index_t local_iters) {
  BlockAsyncOptions o;
  o.block_size = 128;
  o.local_iters = local_iters;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-10;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  return r.solve.ok() ? r.solve.iterations : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "ablation_reordering", {"ufmc"}))
    return rc;
  bench::banner("Ablation — RCM reordering of Chem97ZtZ",
                "paper Section 4.3 (reordering remark)",
                bench::Timings::kVirtual);

  const TestProblem p =
      make_paper_problem(PaperMatrix::kChem97ZtZ, bench::ufmc_dir(args));
  const Csr& a = p.matrix;
  const Permutation perm = reverse_cuthill_mckee(a);
  const Csr ar = permute_symmetric(a, perm);
  const Vector b = bench::unit_rhs(a.rows());
  const Vector br = permute_vector(b, perm);

  report::Table t({"ordering", "bandwidth", "off-block mass (128)",
                   "async-(1) iters", "async-(5) iters"});
  t.add_row({"natural", report::fmt_int(bandwidth(a)),
             report::fmt_fixed(off_block_mass(a, 128), 4),
             report::fmt_int(iters_to_tol(a, b, 1)),
             report::fmt_int(iters_to_tol(a, b, 5))});
  t.add_row({"RCM", report::fmt_int(bandwidth(ar)),
             report::fmt_fixed(off_block_mass(ar, 128), 4),
             report::fmt_int(iters_to_tol(ar, br, 1)),
             report::fmt_int(iters_to_tol(ar, br, 5))});
  t.print(std::cout);
  std::cout << "\nExpected: RCM shrinks the bandwidth/off-block mass, which "
               "lets the local\niterations contribute — async-(5) gains over "
               "async-(1) only after reordering.\n";
  return 0;
}
