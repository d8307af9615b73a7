#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <string>

#include "backend/registry.hpp"
#include "matrices/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bars::backend::BlockSweepKernel;

struct LibrarySpec {
  const char* name;
  std::function<bars::Csr()> make_matrix;
  const char* backend;
  bars::index_t block_size;
  bars::index_t local_iters;
  double tol;
};

const LibrarySpec& library_spec(const std::string& name) {
  static const LibrarySpec kSpecs[] = {
      // The paper's headline configuration: async-(1) on
      // Trefethen_20000 (exact generator), block 256.
      {"solve-tref20k-async1", [] { return bars::trefethen(20000); },
       "scalar", 256, 1, 1e-12},
      // fv1's Jacobi spectral radius on a 200 x 200 grid (n = 40,000),
      // async-(5) at the paper's production block size 448.
      {"solve-fv-async5-simd",
       [] {
         return bars::fv_like(200, bars::fv_reaction_for_rho(200, 0.8541));
       },
       "simd", 448, 5, 1e-10},
  };
  for (const LibrarySpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("not a library workload: " + name);
}

/// One checked solve: converged, residual recomputed outside the solver
/// within tol, and (when a reference exists) x and the iteration count
/// bit-identical to it.
void check_solve(const bars::Csr& a, const bars::Vector& b,
                 const bars::BlockAsyncResult& r, double tol,
                 const bars::BlockAsyncResult* ref, const char* what,
                 Outcome& out) {
  const double res = checked_residual(a, b, r.solve.x);
  std::ostringstream why;
  why << what << ": status " << bars::to_string(r.solve.status)
      << ", recomputed residual " << res << " (tol " << tol << ")";
  bool ok = r.solve.ok() && res <= tol;
  if (ok && ref != nullptr &&
      (r.solve.iterations != ref->solve.iterations ||
       !same_bits(r.solve.x, ref->solve.x))) {
    ok = false;
    why << ", not bit-identical to the reference solve";
  }
  out.check(ok, why.str());
}

bars::BlockAsyncOptions library_options(const LibrarySpec& s) {
  bars::BlockAsyncOptions o;
  o.solve.tol = s.tol;
  o.solve.max_iters = 10000;
  o.solve.record_history = false;
  o.block_size = s.block_size;
  o.local_iters = s.local_iters;
  o.backend = s.backend;
  o.policy = bars::gpusim::SchedulePolicy::kRoundRobin;
  o.num_workers = 0;
  return o;
}

constexpr std::size_t kSetupRepeats = 60;

}  // namespace

bool is_library_workload(const std::string& name) {
  return name == "solve-tref20k-async1" || name == "solve-fv-async5-simd";
}

SolveLayers measure_solve_layers(const bars::Csr& a, const bars::Vector& b,
                                 BlockSweepKernel& kernel,
                                 const bars::BlockAsyncOptions& opts,
                                 Tracer& tracer, double budget_s,
                                 std::size_t min_pairs, std::uint64_t first_op,
                                 Outcome& out) {
  const double tol = opts.solve.tol;
  const bars::BlockAsyncResult ref =
      bars::block_async_solve_with_kernel(a, b, kernel, opts);
  check_solve(a, b, ref, tol, nullptr, "reference solve", out);

  TracingKernel traced(kernel, a, tracer);
  SolveLayers l;
  l.iterations = ref.solve.iterations;
  l.x = ref.solve.x;
  std::vector<double> untraced, traced_walls;
  std::vector<std::int32_t> roots;
  const auto t_begin = Clock::now();
  std::uint64_t op = first_op;
  // Past kMaxPairs more samples no longer sharpen the median solve, and
  // the span log stays a few tens of MB.
  constexpr std::size_t kMaxPairs = 64;
  for (std::size_t p = 0;
       p < min_pairs || (p < kMaxPairs && seconds_since(t_begin) < budget_s);
       ++p) {
    // Alternate which side runs first so drift favours neither.
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (p % 2 == 0)) {
        const auto t0 = Clock::now();
        const auto r = bars::block_async_solve_with_kernel(a, b, kernel, opts);
        untraced.push_back(seconds_since(t0));
        check_solve(a, b, r, tol, &ref, "untraced solve", out);
      } else {
        const std::int32_t root =
            tracer.begin("core.block_async_solve_with_kernel", -1, op);
        traced.start_solve(root, op);
        const auto r = bars::block_async_solve_with_kernel(a, b, traced, opts);
        tracer.end(root);
        ++op;
        roots.push_back(root);
        traced_walls.push_back(tracer.seconds(root));
        check_solve(a, b, r, tol, &ref, "traced solve", out);
        if (l.updates != 0 && (traced.updates() != l.updates ||
                               traced.halo_values() != l.halo_values)) {
          out.fail("traced solves disagree on update or halo counts");
        }
        l.updates = traced.updates();
        l.halo_values = traced.halo_values();
        l.computed_bytes = traced.computed_bytes();
      }
    }
    l.pairs = p + 1;
  }
  l.untraced_p50_s = median(untraced);
  l.traced_p50_s = median(traced_walls);

  const auto ledgers = tracer.ledgers(roots);
  std::vector<std::size_t> order(ledgers.size());
  for (std::size_t k = 0; k < ledgers.size(); ++k) {
    l.max_ledger_error_s = std::max(
        l.max_ledger_error_s, std::abs(ledgers[k].wall_s -
                                       ledgers[k].children_s -
                                       ledgers[k].self_s));
    order[k] = k;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return ledgers[i].wall_s < ledgers[j].wall_s;
  });
  const std::size_t pick = order[order.size() / 2];
  l.wall_s = ledgers[pick].wall_s;
  l.sweep_s = ledgers[pick].children_s;
  l.self_s = ledgers[pick].self_s;
  if (l.max_ledger_error_s > 1e-6) {
    out.fail("layer ledger does not reconcile: sweep + self differs from "
             "the traced solve wall by " +
             std::to_string(l.max_ledger_error_s) + " s");
  }
  return l;
}

void report_solve_layers(Outcome& out, const SolveLayers& l, double triad_gbps,
                         const char* subject) {
  const std::string of = std::string(" of ") + subject;
  const std::string pick = "median of " + std::to_string(l.pairs) +
                           " traced solves" + of;
  out.add("backend.sweep_ms", 1e3 * l.sweep_s, "ms",
          "busy time inside BlockKernel::update, " + pick);
  out.add("backend.updates", static_cast<double>(l.updates), "count",
          "update calls per solve (exact)" + of);
  const double gbps = l.computed_bytes / l.sweep_s / 1e9;
  out.add("backend.sweep_gbps", gbps, "GB/s",
          "computed bytes (CSR nnz, rows, k, halo) per sweep second" + of);
  out.add("backend.sweep_bw_frac", gbps / triad_gbps, "ratio",
          "backend.sweep_gbps / host.triad_gbps (both one thread)");
  out.add("gpusim.halo_values", static_cast<double>(l.halo_values), "count",
          "halo values snapshotted per solve (exact)" + of);
  out.add("gpusim.self_ms", 1e3 * l.self_s, "ms",
          "solve wall minus backend.sweep_ms (event loop, halo, commit, "
          "monitor, front-end); reconciles: " +
              std::to_string(1e3 * l.sweep_s) + " + " +
              std::to_string(1e3 * l.self_s) + " = " +
              std::to_string(1e3 * l.wall_s) + " ms, worst ledger error " +
              std::to_string(1e9 * l.max_ledger_error_s) + " ns");
  out.add("core.iterations", static_cast<double>(l.iterations), "count",
          "global iterations to tolerance (exact)" + of);
}

Outcome run_library(const Args& args, Tracer* tracer, double triad_gbps) {
  const LibrarySpec& spec = library_spec(args.workload);
  const bars::Csr a = spec.make_matrix();
  const bars::Vector b = seeded_rhs(a.rows(), args.seed, 0);
  const bars::BlockAsyncOptions o = library_options(spec);
  const bars::RowPartition part =
      bars::RowPartition::uniform(a.rows(), spec.block_size);
  const bars::backend::KernelConfig cfg{spec.local_iters};

  Outcome out;
  std::vector<double> builds;
  const auto build = [&] {
    const std::int32_t span =
        tracer ? tracer->begin("backend.build_kernel", -1, builds.size()) : -1;
    const auto t0 = Clock::now();
    auto k = bars::backend::build_kernel(spec.backend, a, b, part, cfg);
    builds.push_back(seconds_since(t0));
    if (tracer) tracer->end(span);
    return k;
  };
  const std::unique_ptr<BlockSweepKernel> kernel = build();
  if (kernel->backend_name() != spec.backend) {
    throw BackendGuardError(
        std::string("requested backend '") + spec.backend +
        "' but build_kernel returned '" + std::string(kernel->backend_name()) +
        "' (missing AVX2/FMA?); refusing to publish its numbers under " +
        spec.name);
  }
  const std::string backend_note =
      std::string("backend ") + std::string(kernel->backend_name());

  if (tracer == nullptr) {
    const auto ref = bars::block_async_solve_with_kernel(a, b, *kernel, o);
    check_solve(a, b, ref, spec.tol, nullptr, "warm-up solve", out);
    std::vector<double> walls;
    const auto t_begin = Clock::now();
    while (walls.size() < 3 || seconds_since(t_begin) < args.seconds) {
      const auto t0 = Clock::now();
      const auto r = bars::block_async_solve_with_kernel(a, b, *kernel, o);
      walls.push_back(seconds_since(t0));
      check_solve(a, b, r, spec.tol, &ref, "timed solve", out);
      // The remaining builds are spread evenly over the window, between
      // solves, so their median is taken over the same stretch of host
      // load as the median solve; each built kernel is discarded.
      if (builds.size() < kSetupRepeats &&
          seconds_since(t_begin) >=
              args.seconds * static_cast<double>(builds.size()) /
                  kSetupRepeats) {
        build();
      }
    }
    while (builds.size() < kSetupRepeats) build();
    const std::string n = std::to_string(walls.size()) + " warm solves of " +
                          std::to_string(ref.solve.iterations) +
                          " iterations";
    out.add("setup_s", median(builds), "s",
            "p50 of " + std::to_string(builds.size()) +
                " backend::build_kernel calls spread over the window, " +
                backend_note);
    out.add("solve_s", median(walls), "s", "p50 of " + n);
    out.add("rps", 1.0 / median(walls), "1/s",
            "solves per second one thread sustains at solve_s");
    const double tail = tail_percentile(walls.size());
    out.print("solve_fastest_ms", 1e3 * best(walls), "ms", "fastest of " + n);
    out.print("solve_tail_ms", 1e3 * percentile(walls, tail), "ms",
              "p" + std::to_string(std::lround(100 * tail)) + " of " + n +
                  " (highest percentile with >= 10 samples beyond it)");
    return out;
  }

  while (builds.size() < kSetupRepeats) build();
  out.add("backend.build_ms", 1e3 * median(builds), "ms",
          "p50 of " + std::to_string(builds.size()) +
              " backend::build_kernel calls, " + backend_note);
  std::vector<double> spmv;
  for (int r = 0; r < 31; ++r) {
    const std::int32_t span = tracer->begin("sparse.relative_residual", -1, r);
    const double res = bars::relative_residual(a, b, b);
    tracer->end(span);
    spmv.push_back(tracer->seconds(span));
    if (!std::isfinite(res)) out.fail("relative_residual is not finite");
  }
  out.add("sparse.spmv_ms", 1e3 * median(spmv), "ms",
          "p50 of 31 relative_residual calls on the workload matrix");

  // The solve-layer pairs take up to 60% of the window; serving this
  // matrix through the service fills the rest.
  const auto t_window = Clock::now();
  const SolveLayers l = measure_solve_layers(a, b, *kernel, o, *tracer,
                                             0.6 * args.seconds, 3, 0, out);
  report_solve_layers(out, l, triad_gbps, spec.name);
  out.add("trace.overhead_frac", l.traced_p50_s / l.untraced_p50_s - 1.0,
          "ratio",
          "p50 traced / p50 untraced warm solve - 1, " +
              std::to_string(l.pairs) + " alternating pairs");

  bars::RegistrySolveOptions ro;
  ro.solve = o.solve;
  ro.block_size = spec.block_size;
  ro.local_iters = spec.local_iters;
  ro.backend = spec.backend;
  const ServiceLayers s = probe_service(
      std::make_shared<const bars::Csr>(a), args.seed, ro,
      after(t_window, args.seconds), *tracer, out);
  report_service_layers(out, s,
                        "this workload's matrix served one request at a time "
                        "by a one-worker SolveService");
  return out;
}

}  // namespace perfbench
