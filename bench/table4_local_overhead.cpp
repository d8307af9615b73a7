/// Reproduces Table 4: virtual computation time of async-(1..9) on fv3
/// for 100..500 global iterations — the "local iterations almost come
/// for free" observation.

#include "bench_common.hpp"

#include <iostream>

#include "gpusim/cost_model.hpp"

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "table4_local_overhead", {}))
    return rc;
  bench::banner("Table 4 — overhead of local iterations (fv3)",
                "paper Section 4.3, Table 4",
                bench::Timings::kVirtual);

  const gpusim::CostModel model = gpusim::CostModel::calibrated_to_paper();
  const gpusim::MatrixShape fv3{"fv3", 9801, 87025};

  report::Table t({"method", "100", "200", "300", "400", "500",
                   "overhead vs async-(1)"});
  const value_t t1 = model.gpu_block_async_iteration(fv3, 1);
  for (index_t k = 1; k <= 9; ++k) {
    const value_t per = model.gpu_block_async_iteration(fv3, k);
    std::vector<std::string> row{"async-(" + std::to_string(k) + ")"};
    for (index_t iters : {100, 200, 300, 400, 500}) {
      row.push_back(report::fmt_fixed(per * static_cast<value_t>(iters), 6));
    }
    row.push_back("+" + report::fmt_fixed(100.0 * (per / t1 - 1.0), 1) + "%");
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\nPaper reference (500 iters): async-(1) 5.62 s ... "
               "async-(9) 7.68 s (<35% overhead for 9x the updates).\n";
  (void)args;
  return 0;
}
