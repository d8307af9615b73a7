/// Wall-clock performance regression harness. Unlike the fig*/table*
/// harnesses (which report *virtual* seconds from the calibrated cost
/// model), this one measures real host time of the hot paths — the
/// async-(k) event loop, the parallel commit path and the host-thread
/// chaotic solver — and emits a
/// machine-readable BENCH_perf.json for CI trend tracking.
///
/// Flags: --out=<path>      JSON output (default BENCH_perf.json)
///        --repeats=<n>     timed repetitions, best-of (default 3)
///        --iters=<n>       global iteration budget per run (default 200)
///        --workers=<n>     worker threads for the parallel path
///                          (default 8, capped by hardware)
///        --telemetry       attach a JSON Lines event sink to every run
///                          (including the bit-identity check, proving
///                          observation does not perturb the iterate)
///        --telemetry-out=<path>  event log path
///                          (default BENCH_telemetry.jsonl)

#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "backend/simd_kernel.hpp"
#include "core/block_async.hpp"
#include "core/thread_async.hpp"
#include "report/table.hpp"
#include "telemetry/sinks.hpp"

using namespace bars;

namespace {

using Clock = std::chrono::steady_clock;

double time_best_of(int repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

struct Row {
  std::string matrix;
  std::string config;
  double seconds = 0.0;
  index_t iterations = 0;
  value_t final_residual = 0.0;
  bool converged = false;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  const auto unknown = args.unknown_keys(
      {"out", "repeats", "iters", "workers", "telemetry", "telemetry-out",
       "help"});
  if (!unknown.empty()) {
    std::cerr << "perf_suite: unknown flag --" << unknown.front()
              << "\nvalid flags: --out --repeats --iters --workers "
                 "--telemetry --telemetry-out; the harness and its "
                 "regression workflow are documented in docs/PERFORMANCE.md\n";
    return 2;
  }
  bench::banner("perf suite — wall-clock hot-path timings",
                "perf regression harness (real seconds, not virtual)",
                bench::Timings::kWall);

  const std::string out_path = args.get_string("out", "BENCH_perf.json");
  const int repeats =
      std::max(1, static_cast<int>(args.get_int("repeats", 3)));
  const index_t iters = std::max<index_t>(1, args.get_int("iters", 200));
  const index_t hw = static_cast<index_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  const index_t workers =
      std::min<index_t>(args.get_int("workers", 8), std::max<index_t>(hw, 2));

  const std::vector<PaperMatrix> suite = {
      PaperMatrix::kChem97ZtZ, PaperMatrix::kFv3,
      PaperMatrix::kTrefethen2000, PaperMatrix::kTrefethen20000};

  // --telemetry streams every run's event log through the JSONL sink;
  // tools/validate_telemetry.py checks the output in CI. Without the
  // flag the telemetry pointers stay null and the timings below are
  // the <2%-overhead reference.
  const bool telemetry_on = args.has("telemetry");
  const std::string telemetry_path =
      args.get_string("telemetry-out", "BENCH_telemetry.jsonl");
  std::ofstream telemetry_file;
  std::unique_ptr<telemetry::JsonLinesSink> telemetry_sink;
  if (telemetry_on) {
    telemetry_file.open(telemetry_path);
    telemetry_sink =
        std::make_unique<telemetry::JsonLinesSink>(telemetry_file);
  }

  std::vector<Row> rows;
  const auto run_async = [&](const TestProblem& p, index_t k,
                             index_t nworkers, const std::string& label) {
    BlockAsyncOptions o;
    o.solve.max_iters = iters;
    o.solve.tol = 1e-12;
    o.block_size = 256;
    o.local_iters = k;
    o.policy = gpusim::SchedulePolicy::kRoundRobin;
    o.concurrent_slots = 64;
    o.num_workers = nworkers;
    o.matrix_name = p.name;
    o.solve.telemetry.observer = telemetry_sink.get();
    const Vector b = bench::unit_rhs(p.matrix.rows());
    BlockAsyncResult res;
    const double sec = time_best_of(
        repeats, [&] { res = block_async_solve(p.matrix, b, o); });
    rows.push_back({p.name, label, sec, res.solve.iterations,
                    res.solve.final_residual, res.solve.ok()});
    return res;
  };

  for (const PaperMatrix which : suite) {
    const TestProblem p = make_paper_problem(which);
    run_async(p, 1, 0, "async-(1)");
    run_async(p, 5, 0, "async-(5)");

    ThreadAsyncOptions to;
    to.solve.max_iters = iters;
    to.solve.tol = 1e-12;
    to.block_size = 256;
    to.num_threads = workers;
    to.solve.telemetry.observer = telemetry_sink.get();
    const Vector b = bench::unit_rhs(p.matrix.rows());
    ThreadAsyncResult tres;
    const double sec = time_best_of(
        repeats, [&] { tres = thread_async_solve(p.matrix, b, to); });
    rows.push_back({p.name, "thread-async", sec, tres.solve.iterations,
                    tres.solve.final_residual, tres.solve.ok()});
  }

  // Parallel-commit scaling + bit-identity check on the largest system:
  // under kRoundRobin the parallel path must reproduce the serial
  // iterate exactly, so any speedup is free of result drift.
  const TestProblem big = make_paper_problem(PaperMatrix::kTrefethen20000);
  const Vector bb = bench::unit_rhs(big.matrix.rows());
  BlockAsyncOptions po;
  po.solve.max_iters = iters;
  po.solve.tol = 1e-12;
  po.solve.record_history = true;
  po.block_size = 256;
  po.local_iters = 5;
  po.policy = gpusim::SchedulePolicy::kRoundRobin;
  po.concurrent_slots = 128;
  po.matrix_name = big.name;
  po.solve.telemetry.observer = telemetry_sink.get();
  BlockAsyncResult serial_res, par_res;
  po.num_workers = 0;
  const double serial_sec = time_best_of(
      repeats, [&] { serial_res = block_async_solve(big.matrix, bb, po); });
  po.num_workers = workers;
  const double par_sec = time_best_of(
      repeats, [&] { par_res = block_async_solve(big.matrix, bb, po); });
  const bool identical =
      serial_res.solve.x == par_res.solve.x &&
      serial_res.solve.residual_history == par_res.solve.residual_history;
  const double speedup = par_sec > 0.0 ? serial_sec / par_sec : 0.0;

  // Backend comparison: scalar vs simd over *prebuilt* kernels (the
  // plan-cache steady state — construction is amortized across
  // requests, so the sweep itself is what's timed; see
  // docs/PERFORMANCE.md). Gated: when the simd backend is available it
  // must be >= kSpeedupGate faster on >= kMinFastMatrices of the paper
  // matrices AND agree with scalar elementwise within kToleranceGate on
  // all of them (docs/BACKENDS.md documents the tolerance policy).
  constexpr double kSpeedupGate = 1.3;
  constexpr int kMinFastMatrices = 2;
  constexpr double kToleranceGate = 1e-10;
  struct BackendCmp {
    std::string matrix;
    double scalar_seconds = 0.0;
    double simd_seconds = 0.0;
    double speedup = 0.0;
    double max_rel_diff = 0.0;
    index_t iterations = 0;
  };
  std::vector<BackendCmp> cmps;
  const bool simd_on = backend::simd_available();
  // Rows per vector the simd rows below were swept with (8 on AVX-512,
  // 4 on AVX2, 0 when simd is unavailable): timings at different widths
  // are different measurements.
  const index_t simd_width =
      simd_on ? backend::find_backend("simd").caps().vector_width : 0;
  int fast_matrices = 0;
  bool tolerance_ok = true;
  if (simd_on) {
    for (const PaperMatrix which : suite) {
      const TestProblem p = make_paper_problem(which);
      const Vector b = bench::unit_rhs(p.matrix.rows());
      BlockAsyncOptions o;
      o.solve.max_iters = iters;
      o.solve.tol = 1e-10;
      o.block_size = 256;
      o.local_iters = 5;
      o.policy = gpusim::SchedulePolicy::kRoundRobin;
      o.concurrent_slots = 64;
      o.matrix_name = p.name;
      o.solve.telemetry.observer = telemetry_sink.get();
      const RowPartition part =
          RowPartition::uniform(p.matrix.rows(), o.block_size);
      const auto ks = backend::build_kernel("scalar", p.matrix, b, part,
                                            {o.local_iters});
      const auto kv = backend::build_kernel("simd", p.matrix, b, part,
                                            {o.local_iters});
      BlockAsyncResult rs, rv;
      BackendCmp c;
      c.matrix = p.name;
      c.scalar_seconds = time_best_of(repeats, [&] {
        rs = block_async_solve_with_kernel(p.matrix, b, *ks, o);
      });
      c.simd_seconds = time_best_of(repeats, [&] {
        rv = block_async_solve_with_kernel(p.matrix, b, *kv, o);
      });
      c.speedup =
          c.simd_seconds > 0.0 ? c.scalar_seconds / c.simd_seconds : 0.0;
      c.iterations = rv.solve.iterations;
      for (std::size_t i = 0; i < rs.solve.x.size(); ++i) {
        const double scale = std::max(std::abs(rs.solve.x[i]), 1.0);
        c.max_rel_diff = std::max(
            c.max_rel_diff, std::abs(rs.solve.x[i] - rv.solve.x[i]) / scale);
      }
      if (c.speedup >= kSpeedupGate) ++fast_matrices;
      if (c.max_rel_diff > kToleranceGate) tolerance_ok = false;
      rows.push_back({p.name, "async-(5) scalar backend (prebuilt)",
                      c.scalar_seconds, rs.solve.iterations,
                      rs.solve.final_residual, rs.solve.ok()});
      rows.push_back({p.name, "async-(5) simd backend (prebuilt)",
                      c.simd_seconds, rv.solve.iterations,
                      rv.solve.final_residual, rv.solve.ok()});
      cmps.push_back(c);
    }
  }
  const bool backend_gate_ok =
      !simd_on || (fast_matrices >= kMinFastMatrices && tolerance_ok);

  report::Table t({"matrix", "config", "wall [s]", "iters", "residual"});
  for (const Row& r : rows) {
    t.add_row({r.matrix, r.config, report::fmt_fixed(r.seconds, 4),
               report::fmt_int(r.iterations),
               report::fmt_sci(r.final_residual)});
  }
  t.print(std::cout);
  std::cout << "\nparallel commit (" << big.name << ", "
            << workers << " workers): serial "
            << report::fmt_fixed(serial_sec, 4) << " s, parallel "
            << report::fmt_fixed(par_sec, 4) << " s, speedup "
            << report::fmt_fixed(speedup, 2) << "x, bit-identical: "
            << (identical ? "yes" : "NO") << "\n"
            << "(hardware threads: " << hw
            << "; speedup requires a multi-core host)\n";

  if (simd_on) {
    std::cout << "\nbackend comparison (prebuilt kernels, block 256, "
                 "async-(5), simd "
              << simd_width << " lanes):\n";
    for (const BackendCmp& c : cmps) {
      std::cout << "  " << c.matrix << ": scalar "
                << report::fmt_fixed(c.scalar_seconds, 4) << " s, simd "
                << report::fmt_fixed(c.simd_seconds, 4) << " s, speedup "
                << report::fmt_fixed(c.speedup, 2) << "x, max rel diff "
                << report::fmt_sci(c.max_rel_diff) << "\n";
    }
    std::cout << "backend gate: " << fast_matrices << "/" << cmps.size()
              << " matrices >= " << kSpeedupGate << "x (need >= "
              << kMinFastMatrices << "), tolerance "
              << (tolerance_ok ? "ok" : "EXCEEDED") << " (bound "
              << report::fmt_sci(kToleranceGate) << ") -> "
              << (backend_gate_ok ? "PASS" : "FAIL") << "\n";
  } else {
    std::cout << "\nbackend comparison skipped: simd backend not available "
                 "on this machine/build\n";
  }

  std::ofstream js(out_path);
  js << "{\n  \"schema\": \"bars-perf-v1\",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"repeats\": " << repeats << ",\n"
     << "  \"global_iteration_budget\": " << iters << ",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    js << "    {\"matrix\": \"" << json_escape(r.matrix)
       << "\", \"config\": \"" << json_escape(r.config)
       << "\", \"wall_seconds\": " << r.seconds
       << ", \"iterations\": " << r.iterations
       << ", \"final_residual\": " << r.final_residual
       << ", \"converged\": " << (r.converged ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n"
     << "  \"parallel_commit\": {\"matrix\": \"" << json_escape(big.name)
     << "\", \"workers\": " << workers
     << ", \"serial_seconds\": " << serial_sec
     << ", \"parallel_seconds\": " << par_sec
     << ", \"speedup\": " << speedup
     << ", \"bit_identical\": " << (identical ? "true" : "false")
     << "},\n"
     << "  \"simd_available\": " << (simd_on ? "true" : "false") << ",\n"
     << "  \"simd_vector_width\": " << simd_width << ",\n"
     << "  \"backend_comparison\": [\n";
  for (std::size_t i = 0; i < cmps.size(); ++i) {
    const BackendCmp& c = cmps[i];
    js << "    {\"matrix\": \"" << json_escape(c.matrix)
       << "\", \"scalar_seconds\": " << c.scalar_seconds
       << ", \"simd_seconds\": " << c.simd_seconds
       << ", \"speedup\": " << c.speedup
       << ", \"max_rel_diff\": " << c.max_rel_diff
       << ", \"iterations\": " << c.iterations << "}"
       << (i + 1 < cmps.size() ? "," : "") << "\n";
  }
  js << "  ],\n"
     << "  \"backend_gate\": {\"required_speedup\": " << kSpeedupGate
     << ", \"min_matrices\": " << kMinFastMatrices
     << ", \"tolerance\": " << kToleranceGate
     << ", \"fast_matrices\": " << fast_matrices
     << ", \"passed\": " << (backend_gate_ok ? "true" : "false")
     << "}\n}\n";
  js.close();
  std::cout << "\nwrote " << out_path << "\n";
  if (telemetry_on) {
    telemetry_file.close();
    std::cout << "wrote " << telemetry_path << "\n";
  }
  return (identical && backend_gate_ok) ? 0 : 1;
}
