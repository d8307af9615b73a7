/// Reproduces Table 1: dimensions and spectral characteristics of the
/// test suite. Prints paper values next to measured values for every
/// matrix (surrogates marked with '*'; Trefethen matrices are exact).
///
/// Flags: --ufmc=<dir> load original UFMC .mtx files
///        --skip-cond  skip the (slow) condition-number columns

#include "bench_common.hpp"

#include "eigen/condition.hpp"
#include "eigen/power_iteration.hpp"

#include <iostream>

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "table1_matrices", {"ufmc", "skip-cond"}))
    return rc;
  bench::banner("Table 1 — test matrices", "paper Table 1 (Section 3.1)",
                bench::Timings::kVirtual);
  const bool skip_cond = args.has("skip-cond");

  report::Table t({"matrix", "n(paper)", "n", "nnz(paper)", "nnz",
                   "cond(A) paper", "cond(A)", "cond(D^-1 A) paper",
                   "cond(D^-1 A)", "rho(M) paper", "rho(M)", "rho(|M|)"});

  for (const TestProblem& p : make_paper_suite(bench::ufmc_dir(args))) {
    const Csr& a = p.matrix;
    std::string cond_a = "-", cond_s = "-";
    if (!skip_cond) {
      ConditionOptions co;
      co.lanczos.max_steps = 300;
      // cond(A): lambda_min refinement via inverse iteration is costly
      // for the ill-conditioned fv systems; cap the inner CG.
      co.cg_max_iters = 40000;
      const auto ca = spd_condition_number(a, co);
      const auto cs = jacobi_scaled_condition_number(a, co);
      cond_a = report::fmt_sci(ca.condition, 2);
      cond_s = report::fmt_sci(cs.condition, 2);
    }
    const value_t rho = jacobi_spectral_radius(a).value;
    const value_t rho_abs = async_spectral_radius(a).value;
    t.add_row({p.name + (p.surrogate ? "*" : ""),
               report::fmt_int(p.paper.n), report::fmt_int(a.rows()),
               report::fmt_int(p.paper.nnz), report::fmt_int(a.nnz()),
               report::fmt_sci(p.paper.cond_a, 1), cond_a,
               report::fmt_sci(p.paper.cond_scaled, 2), cond_s,
               report::fmt_fixed(p.paper.rho, 4), report::fmt_fixed(rho, 4),
               report::fmt_fixed(rho_abs, 4)});
    std::cout << "  [" << p.name << "] done\n";
  }
  std::cout << '\n';
  t.print(std::cout);
  std::cout << "\n'*' = spectrally calibrated surrogate (see DESIGN.md §3); "
               "Trefethen matrices are exact.\n";
  return 0;
}
