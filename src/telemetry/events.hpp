#pragma once

#include "common/solver_status.hpp"
#include "sparse/types.hpp"

/// \file events.hpp
/// The solver-facing observability event model. One solve emits:
///
///   on_start            exactly once, before any work
///   on_iteration        once per global iteration (index 0 = initial
///                       residual), monotonically increasing index
///   on_block_commit     once per committed block execution (simulated
///                       executors; high volume, alloc-free path)
///   on_recovery_event   whenever the resilience layer acts
///   on_finish           exactly once, after the verdict
///
/// Events are plain structs with no owned memory, so constructing and
/// passing one never allocates; string fields are static-lifetime
/// C strings.

namespace bars::telemetry {

/// What the `time` field of IterationEvent (and the histories) means
/// for this solve.
enum class TimeDomain {
  kNone,     ///< iteration index only (plain CPU solvers)
  kVirtual,  ///< simulated seconds (gpusim executors)
  kWall,     ///< real elapsed seconds (host-thread solver)
};

[[nodiscard]] constexpr const char* to_string(TimeDomain d) noexcept {
  switch (d) {
    case TimeDomain::kNone:
      return "none";
    case TimeDomain::kVirtual:
      return "virtual";
    case TimeDomain::kWall:
      return "wall";
  }
  return "unknown";
}

/// Emitted once, before the first iteration.
struct SolveStartEvent {
  const char* solver = "";  ///< registry-style name; static lifetime
  index_t rows = 0;
  index_t nnz = 0;
  /// Row blocks ("subdomains"); 0 for unblocked CPU solvers.
  index_t num_blocks = 0;
  /// Worker threads (block-async's commit pool, thread-async's
  /// threads); 0 = n/a.
  index_t num_workers = 0;
  TimeDomain time_domain = TimeDomain::kNone;
};

/// One residual sample at a global-iteration boundary. `iteration` is
/// monotone within a solve and starts at 0 (the initial residual).
struct IterationEvent {
  index_t iteration = 0;
  value_t residual = 0.0;  ///< relative l2 residual
  value_t time = 0.0;      ///< seconds in the solve's TimeDomain
};

/// One committed block execution on a simulated device. Emitted in
/// deterministic commit order (identical for the serial and parallel
/// commit paths).
struct BlockCommitEvent {
  index_t block = 0;
  index_t device = 0;      ///< owning device (multi-GPU); 0 otherwise
  index_t generation = 0;  ///< completed commits of this block before this
  value_t virtual_time = 0.0;
  /// Max |generation gap| to the halo sources read by this execution
  /// (the staleness the paper's Section 4.1 variance stems from).
  index_t staleness = 0;
};

/// Something the resilience layer observed or did.
struct RecoveryEvent {
  enum class Kind {
    kCheckpointSaved,        ///< a clean iterate became the rollback target
    kAnomalyDetected,        ///< online detector flagged the residual
    kRollback,               ///< iterate restored from the checkpoint
    kDampedRestart,          ///< divergence restart (damped iterate)
    kBlockStalled,           ///< watchdog flagged a dead/stalled block
    kWatchdogReassignment,   ///< failed components reassigned
    kDeviceDropout,          ///< a device left the multi-GPU run
    kDeviceRejoin,           ///< a device came back and resynced
    kLinkRetry,              ///< sweep-end transfer failed; backing off
  };
  Kind kind = Kind::kCheckpointSaved;
  index_t iteration = 0;   ///< global iteration of the event
  value_t residual = 0.0;  ///< relative residual after the event
  /// Kind-specific payload: anomaly kind, stalled block id, components
  /// freed, or device id.
  index_t detail = 0;
};

[[nodiscard]] constexpr const char* to_string(RecoveryEvent::Kind k) noexcept {
  switch (k) {
    case RecoveryEvent::Kind::kCheckpointSaved:
      return "checkpoint-saved";
    case RecoveryEvent::Kind::kAnomalyDetected:
      return "anomaly-detected";
    case RecoveryEvent::Kind::kRollback:
      return "rollback";
    case RecoveryEvent::Kind::kDampedRestart:
      return "damped-restart";
    case RecoveryEvent::Kind::kBlockStalled:
      return "block-stalled";
    case RecoveryEvent::Kind::kWatchdogReassignment:
      return "watchdog-reassignment";
    case RecoveryEvent::Kind::kDeviceDropout:
      return "device-dropout";
    case RecoveryEvent::Kind::kDeviceRejoin:
      return "device-rejoin";
    case RecoveryEvent::Kind::kLinkRetry:
      return "link-retry";
  }
  return "unknown";
}

/// Emitted once, after the stopping verdict.
struct SolveFinishEvent {
  SolverStatus status = SolverStatus::kMaxIterations;
  index_t iterations = 0;
  value_t final_residual = 0.0;
  value_t virtual_time = 0.0;  ///< simulated seconds; 0 for CPU solvers
  value_t wall_seconds = 0.0;  ///< real host time of the whole solve
  index_t block_commits = 0;   ///< total committed executions; 0 = n/a
  index_t max_staleness = 0;
  index_t recovery_actions = 0;  ///< rollbacks + damped restarts
};

}  // namespace bars::telemetry
