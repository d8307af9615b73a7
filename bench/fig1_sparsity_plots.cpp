/// Reproduces Fig. 1: sparsity plots of the test matrices, rendered as
/// ASCII spy plots (Chem97ZtZ with its far-from-diagonal couplings, the
/// banded fv family, the block-structured plate, and Trefethen's
/// power-of-two ladder).

#include "bench_common.hpp"

#include <iostream>

#include "report/spy.hpp"

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "fig1_sparsity_plots", {"ufmc"}))
    return rc;
  bench::banner("Fig. 1 — sparsity plots", "paper Section 3.1, Fig. 1",
                bench::Timings::kVirtual);

  for (PaperMatrix id :
       {PaperMatrix::kChem97ZtZ, PaperMatrix::kFv1, PaperMatrix::kS1rmt3m1,
        PaperMatrix::kTrefethen2000}) {
    const TestProblem p = make_paper_problem(id, bench::ufmc_dir(args));
    std::cout << "--- " << p.name << " (n = " << p.matrix.rows()
              << ", nnz = " << p.matrix.nnz() << ") ---\n";
    report::spy(std::cout, p.matrix);
    std::cout << '\n';
  }
  std::cout << "Compare with the paper's Fig. 1: (a) far off-diagonal "
               "structure,\n(b) narrow band, (c) blocked band, (d) "
               "power-of-two ladder.\n";
  return 0;
}
