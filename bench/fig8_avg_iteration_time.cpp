/// Reproduces Fig. 8: average time per iteration as a function of the
/// total iteration count (fv3) — GPU methods amortize the device setup
/// cost, the CPU baseline is flat.

#include "bench_common.hpp"

#include <iostream>

#include "gpusim/cost_model.hpp"

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "fig8_avg_iteration_time", {}))
    return rc;
  bench::banner("Fig. 8 — average iteration time vs total iterations (fv3)",
                "paper Section 4.3, Fig. 8",
                bench::Timings::kVirtual);

  const gpusim::CostModel model = gpusim::CostModel::calibrated_to_paper();
  const gpusim::MatrixShape fv3{"fv3", 9801, 87025};
  const value_t setup = model.device_setup_overhead(fv3);

  report::Table t({"total iters", "Gauss-Seidel (CPU) [s/iter]",
                   "Jacobi (GPU) [s/iter]", "async-(1) (GPU) [s/iter]"});
  for (index_t n : {5, 10, 20, 40, 60, 80, 100, 140, 200}) {
    const auto nn = static_cast<value_t>(n);
    t.add_row({report::fmt_int(n),
               report::fmt_fixed(model.host_gauss_seidel_iteration(fv3), 6),
               report::fmt_fixed(
                   (setup + nn * model.gpu_jacobi_iteration(fv3)) / nn, 6),
               report::fmt_fixed(
                   (setup + nn * model.gpu_block_async_iteration(fv3, 1)) /
                       nn,
                   6)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape (paper): CPU flat at ~0.126 s; GPU curves "
               "decay ~setup/N towards the asymptotes 0.021 s (Jacobi) and "
               "0.011 s (async-(1)).\n";
  (void)args;
  return 0;
}
