#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "backend/kernel_backend.hpp"
#include "common.hpp"
#include "core/block_async.hpp"
#include "core/registry.hpp"
#include "trace.hpp"

/// \file workloads.hpp
/// The three workloads and the per-layer probes they share.
///
/// Library workloads (`solve-*`) build a kernel with
/// backend::build_kernel and time warm block_async_solve_with_kernel
/// calls on one thread. The service workload (`svc-mixed`) drives a
/// SolveService from one generator thread in a closed loop. A run with
/// tracing off reports the end-to-end metrics; a traced run reports the
/// per-layer metrics instead (see perfbench/README.md for which
/// end-to-end metric each one should move).

namespace perfbench {

/// Thrown when the requested compute backend silently degraded (e.g.
/// "simd" on a CPU without AVX2/FMA): the run must not publish numbers
/// under a workload name that promises another backend.
struct BackendGuardError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[nodiscard]] bool is_library_workload(const std::string& name);
[[nodiscard]] bool is_service_workload(const std::string& name);

/// `tracer` is null for the end-to-end run. `triad_gbps` is the host's
/// measured bandwidth (traced runs only).
[[nodiscard]] Outcome run_library(const Args& args, Tracer* tracer,
                                  double triad_gbps);
[[nodiscard]] Outcome run_service(const Args& args, Tracer* tracer,
                                  double triad_gbps);

/// Layer split of warm solves of one (matrix, rhs, kernel, options):
/// untraced and traced solves alternate, the traced ones go through a
/// TracingKernel, and every solve is checked (converged, recomputed
/// residual <= tol, x and iteration count bit-identical to the first).
///
/// Per-solve times are the median of the run: on a shared host the
/// fastest solve jumps between two speed levels from one stretch of the
/// run to the next, while the median moves by a few percent.
struct SolveLayers {
  double untraced_p50_s = 0.0;
  double traced_p50_s = 0.0;
  /// Ledger of the median traced solve:
  /// sweep_s + self_s == wall_s exactly when the spans reconcile.
  double wall_s = 0.0;
  double sweep_s = 0.0;
  double self_s = 0.0;
  double max_ledger_error_s = 0.0;  ///< worst |wall - sweep - self|
  std::uint64_t updates = 0;
  std::uint64_t halo_values = 0;
  double computed_bytes = 0.0;
  bars::index_t iterations = 0;
  std::size_t pairs = 0;
  bars::Vector x;  ///< the reference solve's iterate
};

[[nodiscard]] SolveLayers measure_solve_layers(
    const bars::Csr& a, const bars::Vector& b,
    bars::backend::BlockSweepKernel& kernel,
    const bars::BlockAsyncOptions& opts, Tracer& tracer, double budget_s,
    std::size_t min_pairs, std::uint64_t first_op, Outcome& out);

/// Adds backend.sweep_*, backend.updates, gpusim.*, core.iterations.
void report_solve_layers(Outcome& out, const SolveLayers& l,
                         double triad_gbps, const char* subject);

/// The BlockAsyncOptions a SolveService derives from a request's
/// RegistrySolveOptions on its plan path, so a standalone solve can
/// reproduce a served one exactly.
[[nodiscard]] bars::BlockAsyncOptions served_options(
    const bars::RegistrySolveOptions& ro);

/// Per-layer numbers of the service layer.
struct ServiceLayers {
  double queue_wait_ms = 0.0;  ///< p50 of replies' queue_seconds
  /// p50 solve_seconds of replies to the reference request minus p50 of
  /// standalone solves of that same request.
  double lock_wait_ms = 0.0;
  double batch_size = 0.0;     ///< mean requests per fused batch
  double plan_hit_ratio = 0.0;
  std::uint64_t plan_builds = 0;
  std::uint64_t evictions = 0;
  std::size_t samples = 0;
  std::size_t reference_samples = 0;  ///< replies behind lock_wait_ms
};

void report_service_layers(Outcome& out, const ServiceLayers& l,
                           const char* subject);

/// Serves seeded right-hand sides on `a` through a one-worker
/// SolveService, one request at a time, until `until` (at least three
/// requests), and measures what the service layer adds to this
/// workload's solve. Every reply to the reference right-hand side is
/// followed by a standalone solve of it, which must match it bit for bit.
[[nodiscard]] ServiceLayers probe_service(
    const std::shared_ptr<const bars::Csr>& a, std::uint64_t seed,
    const bars::RegistrySolveOptions& ro, Clock::time_point until,
    Tracer& tracer, Outcome& out);

}  // namespace perfbench
