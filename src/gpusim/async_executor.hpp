#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/solver_status.hpp"
#include "gpusim/block_kernel.hpp"
#include "gpusim/stopping.hpp"
#include "gpusim/topology.hpp"
#include "gpusim/trace.hpp"
#include "resilience/recovery.hpp"
#include "resilience/scenario.hpp"
#include "sparse/types.hpp"
#include "telemetry/options.hpp"

/// \file async_executor.hpp
/// Discrete-event simulator of one or more GPUs running an asynchronous
/// block-relaxation kernel (paper Sections 3.3, 3.4 and 4.6).
///
/// Execution model: each device has `concurrent_slots` multiprocessors.
/// Ready blocks start in scheduler order as slots free up. A block
/// execution is split into a START event (halo snapshot at virtual time
/// t) and a WRITE event (commit at t + duration). Between a block's
/// snapshot and its commit other blocks commit — exactly the chaotic
/// staleness of Chazan-Miranker iterations, with the shift function
/// realized by the seeded event interleaving. Durations carry seeded
/// jitter and occasional stragglers, mimicking the non-deterministic
/// GPU-internal scheduling the paper studies in Section 4.1.
///
/// Multiple devices split the block set contiguously; each runs the
/// same model on its own blocks. With `transfer` set, each device
/// computes on its own view of the iterate and the communication
/// scheme decides when a remote segment becomes visible and what each
/// sweep costs on which link:
///
///  - AMC: at each device-sweep end the device uploads its segment to
///    the host (own PCIe link, short stall), the host forwards it to the
///    other devices on their links. Cross-socket traffic pays a QPI
///    visibility latency.
///  - DC: at each sweep end the device pushes its segment to the master
///    GPU and pulls the canonical vector back before its next sweep; all
///    traffic serializes on the master's PCIe link, with a per-transfer
///    GPU-direct sync overhead.
///  - DK: a single canonical vector lives on the master; non-master
///    kernels read/write it remotely, inflating their execution time by
///    a penalty factor but making updates immediately visible.

namespace bars::gpusim {

class WorkerPool;

/// How the device orders ready blocks.
enum class SchedulePolicy {
  /// Fixed order 0..q-1, no jitter: deterministic reference execution.
  kRoundRobin,
  /// Seeded duration jitter + stragglers with FIFO re-queue (default;
  /// models the GPU's non-deterministic block scheduler).
  kJittered,
  /// Like kJittered, plus a fresh random block permutation each sweep.
  kShuffled,
};

/// Inter-device communication of a multi-GPU run (paper Section 3.4).
struct TransferOptions {
  TransferScheme scheme = TransferScheme::kAMC;
  TransferParams params{};
  /// Host staging synchronization per AMC sweep (stream sync).
  value_t amc_host_sync_overhead_s = 1.0e-3;
  /// Base delay of the exponential backoff applied when a sweep-end
  /// transfer hits a failed link (doubles per consecutive failure).
  value_t link_retry_backoff_s = 1.0e-3;
};

struct ExecutorOptions {
  /// Stopping knobs (max_global_iters / tol / divergence_limit), the
  /// same struct the IterationMonitor consumes. Convergence is
  /// residual_fn(x) <= tol (residual_fn decides the norm and scaling;
  /// the paper uses the relative l2 residual).
  StoppingCriteria stopping{};

  /// Observability hooks. The executor emits on_block_commit (gated by
  /// telemetry.block_commits) and feeds on_iteration /
  /// on_recovery_event through the IterationMonitor; solver front-ends
  /// emit on_start / on_finish. Disabled (null observer) costs one
  /// branch per commit.
  telemetry::TelemetryOptions telemetry{};

  /// Simulated GPUs (1..8); the block set is split contiguously.
  index_t num_devices = 1;
  /// Unset: every device reads and writes the iterate directly (the
  /// single-GPU model; device dropout and link-failure events are
  /// ignored). Set: each device computes on its own view, synchronized
  /// by the scheme at device-sweep ends (see the file comment).
  std::optional<TransferOptions> transfer;

  index_t concurrent_slots = 14;  ///< multiprocessors per device (C2070: 14)
  /// Virtual seconds for one device to run all q blocks once;
  /// per-block duration is derived as global_iteration_time *
  /// concurrent_slots / num_blocks (capped at num_blocks).
  value_t global_iteration_time = 1.0e-2;
  value_t jitter = 0.20;            ///< +- fraction on block durations
  value_t straggler_prob = 0.05;    ///< chance a block is delayed...
  value_t straggler_factor = 2.0;   ///< ...by this duration factor
  /// Chazan-Miranker condition 2 (bounded shift): a block may not run
  /// more than this many generations ahead of the slowest block on its
  /// device. The GPU's greedy block scheduler provides the same
  /// guarantee because every queued block eventually gets a
  /// multiprocessor.
  index_t max_generation_skew = 2;
  /// Point within a block's execution at which the halo is read, as a
  /// fraction of the execution duration. 0 = most pessimistic (read at
  /// launch), 1 = freshest possible. A real kernel streams its inputs
  /// while running; 0.5 reproduces the paper's observation that
  /// async-(1) converges at essentially the synchronous Jacobi rate.
  value_t read_fraction = 0.5;

  SchedulePolicy policy = SchedulePolicy::kJittered;
  std::uint64_t seed = 99;
  /// When set, block durations follow a *recurring pattern* drawn from
  /// this seed (identical across runs), and `seed` only contributes a
  /// tiny multiplicative perturbation (`run_noise`). This models the
  /// paper's Section 4.1 observation that the GPU's internal scheduling
  /// appears to repeat a pattern, making run-to-run variation small and
  /// structured rather than fully random.
  std::optional<std::uint64_t> pattern_seed;
  /// Relative magnitude of the per-run perturbation under pattern mode.
  value_t run_noise = 2.0e-3;
  /// Record one TraceEvent per block execution (memory ~ O(executions)).
  bool record_trace = false;
  /// Fault timeline (Section 4.5 component failures, halo corruption;
  /// device dropout and link failures act only when `transfer` is set).
  std::optional<resilience::FaultScenario> scenario;
  /// Active recovery: checkpoint/rollback, online SDC detection,
  /// watchdog supervision. Unset = plain run (legacy behavior).
  std::optional<resilience::Policy> resilience;

  /// > 1 enables the parallel commit path: all WRITE events that fall
  /// at the same virtual time are executed concurrently on a reusable
  /// worker pool (their owned row ranges are disjoint) and committed
  /// in deterministic event order, so results — iterate, histories,
  /// trace — are bit-identical to the serial path. Requires
  /// kernel.parallel_commit_safe(), one device and no `transfer`; fault
  /// timelines and resilience policies automatically fall back to
  /// serial commits because their iteration boundaries may mutate state
  /// mid-batch. 0 or 1 = serial.
  index_t num_workers = 0;
};

struct ExecutorResult {
  /// Why the run stopped; kRecoveredConverged when the resilience
  /// layer rewrote the iterate on the way to convergence.
  SolverStatus status = SolverStatus::kMaxIterations;
  [[nodiscard]] bool ok() const { return succeeded(status); }
  index_t global_iterations = 0;
  value_t virtual_time = 0.0;  ///< simulated seconds at stop
  /// residual_history[k] = residual after k global iterations
  /// (residual_history[0] is the initial residual). With
  /// stopping.record_history off it holds only the exactly checked
  /// boundaries; back() is still the residual at the stopping boundary.
  std::vector<value_t> residual_history;
  /// Virtual time at which each history entry was recorded.
  std::vector<value_t> time_history;
  /// Number of completed executions per block (Chazan-Miranker
  /// condition 1: every block updated "infinitely often" — in practice,
  /// counts stay within a bounded spread).
  std::vector<index_t> block_executions;
  /// Largest generation lag observed between a reader and the halo
  /// source it read (bounded-shift condition 2); negative shifts (the
  /// source is *ahead*) are folded in by absolute value.
  index_t max_staleness = 0;
  /// Execution trace (only populated when options.record_trace).
  ExecutionTrace trace;
  /// What the resilience layer did (checkpoints, rollbacks, watchdog
  /// actions); all-zero for plain runs.
  resilience::Report resilience;
  /// Bytes moved and transfers made by the scheme (zero without
  /// `transfer`).
  value_t bytes_host_device = 0.0;
  value_t bytes_device_device = 0.0;
  index_t num_transfers = 0;
};

/// Runs the kernel to convergence (or max_global_iters) in virtual time.
class AsyncExecutor {
 public:
  AsyncExecutor(const BlockKernel& kernel, ExecutorOptions opts);
  ~AsyncExecutor();

  /// Iterate on x in place. residual_fn is called at most once per
  /// global iteration with the current iterate.
  ExecutorResult run(Vector& x,
                     const std::function<value_t(const Vector&)>& residual_fn);

 private:
  const BlockKernel& kernel_;
  ExecutorOptions opts_;
  /// Lazily created on the first parallel run(), then reused across
  /// runs so repeated solves pay thread spawn-up only once.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace bars::gpusim
