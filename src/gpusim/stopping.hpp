#pragma once

#include <array>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "common/solver_status.hpp"
#include "resilience/recovery.hpp"
#include "resilience/scenario.hpp"
#include "sparse/types.hpp"
#include "telemetry/observer.hpp"

/// \file stopping.hpp
/// Per-global-iteration bookkeeping of the AsyncExecutor, for single-
/// and multi-device runs alike: residual/time history recording, the
/// convergence/divergence/iteration-limit verdict, and the single place
/// where the resilience layer hooks into a solve — online SDC detection
/// with checkpoint rollback, watchdog supervision with component
/// reassignment, and damped restarts on divergence.
///
/// Residual monitoring (the paper's relative l2 stopping rule, Section
/// 4.3) is exact wherever a verdict is formed: every verdict and every
/// recorded residual comes from `residual_fn`. What the monitor may
/// skip is the exact check at a boundary whose verdict the calibrated
/// estimate predicts to be "continue". The executor passes a cheap
/// estimate at each boundary — the square root of the sum of the
/// blocks' latest residual contributions (ExecContext::residual_sq),
/// an unnormalized residual norm: the monitor only ever compares it
/// with its own ratios to the exact residual, so the ||b|| scale
/// cancels. The monitor skips the exact check only when history,
/// observer, resilience policy and fault timeline are all off, the
/// boundary is not the iteration limit, the cancel token is clear, at
/// least kCalibrationBoundaries exact checks have calibrated
/// R = max(estimate / exact) and r = min(estimate / exact), and the
/// estimate is finite, above kConfirmMargin * R * tol / kappa and at
/// most r * divergence_limit / kConfirmMargin (the estimate lags a
/// growing residual, so a diverging run must not coast past the
/// limit). kappa <= 1 is the fastest one-boundary decrease of the
/// estimate over the last kContractionWindow boundaries: each block
/// reports the residual of the state it read, so the estimate trails
/// the exact residual by about one global iteration, and R (measured
/// at earlier checks) does not cover a step that contracts faster than
/// those. Heavy stragglers produce such steps: a block that commits
/// after a long delay leaves a stale, large contribution in the sum
/// while its update removes most of its rows' residual. A skipped
/// boundary records and emits nothing.
///
/// The skip rule is a calibrated heuristic, not a proof: if
/// estimate / exact rose above kConfirmMargin * R / kappa, a run would
/// skip the check at a boundary where the exact residual had already
/// reached tol and stop late. Bit-identical results with
/// record_history on and off were measured on the MonitorParity tests
/// (tests/gpusim/test_monitor_parity.cpp) and are not guaranteed
/// beyond them. docs/PERFORMANCE.md ("Residual monitoring") has the
/// measurements behind the constants.

namespace bars::gpusim {

struct StoppingCriteria {
  index_t max_global_iters = 1000;
  value_t tol = 1e-14;
  value_t divergence_limit = 1e30;
  /// Cooperative cancellation token (SolveOptions::cancel), polled once
  /// per global-iteration boundary. Null disables the check.
  const common::CancelToken* cancel = nullptr;
  /// Mirrors SolveOptions::record_history. When false the monitor may
  /// skip exact checks at boundaries the calibrated estimate predicts
  /// non-final (file comment); the history then holds only the checked
  /// boundaries, and its last entry is still the exact residual at the
  /// stopping boundary.
  bool record_history = true;
};

/// Exact checks that calibrate the estimate before any may be skipped.
inline constexpr index_t kCalibrationBoundaries = 3;
/// Safety factor between the calibrated estimate and the verdict
/// thresholds: a boundary is skipped only while
/// kappa * estimate > kConfirmMargin * R * tol and
/// kConfirmMargin * estimate <= r * divergence_limit.
inline constexpr value_t kConfirmMargin = 2.0;
/// Boundaries over which kappa, the fastest one-boundary decrease of
/// the estimate, is taken.
inline constexpr index_t kContractionWindow = 8;

enum class StopVerdict {
  kContinue,
  kConverged,   ///< residual reached tol
  kDiverged,    ///< residual non-finite or above the divergence limit
  kIterLimit,   ///< max_global_iters reached
  kCancelled,   ///< the cancel token was tripped mid-solve
};

/// Drives one solve's global-iteration boundaries. `policy` and
/// `timeline` may be null (plain run, legacy behavior bit-for-bit).
/// The monitor owns the residual/time histories; the executor moves
/// them into its result after the run loop.
///
/// The monitor is also the executor's telemetry emission point: when an
/// observer is attached it receives one
/// on_iteration per boundary (mirroring the history entries) and one
/// on_recovery_event per resilience action. Solver front-ends emit
/// on_start / on_finish themselves (they know the solver name and the
/// wall clock); the executor emits on_block_commit.
class IterationMonitor {
 public:
  IterationMonitor(StoppingCriteria criteria,
                   const resilience::Policy* policy,
                   resilience::ScenarioTimeline* timeline,
                   index_t num_blocks,
                   telemetry::SolveObserver* observer = nullptr);

  /// Record the initial residual (history index 0, time 0).
  void record_initial(value_t r0);

  /// True when this run may skip exact checks (history, observer,
  /// policy and timeline all off): only then does the executor collect
  /// per-block residual contributions for the estimate.
  [[nodiscard]] bool uses_estimate() const { return may_skip_; }

  /// Handle the boundary after global iteration `iter`: record the
  /// residual, advance the fault timeline, run detector/checkpoint/
  /// watchdog hooks (which may mutate x — rollback, damped restart),
  /// and return the stopping verdict. `estimate` is the executor's
  /// unnormalized residual estimate (+inf when unavailable); it only
  /// ever decides whether `residual_fn` runs, never a verdict.
  StopVerdict on_global_iteration(
      index_t iter, value_t now, Vector& x,
      const std::function<value_t(const Vector&)>& residual_fn,
      std::span<const index_t> block_executions, value_t estimate);

  [[nodiscard]] std::vector<value_t>& residual_history() { return history_; }
  [[nodiscard]] std::vector<value_t>& time_history() { return times_; }

  /// Number of times the monitor rewrote the iterate (rollbacks +
  /// damped restarts). The executor compares this across a boundary
  /// call to know when device views must be re-broadcast.
  [[nodiscard]] index_t iterate_mutations() const {
    return report_.rollbacks + report_.damped_restarts;
  }

  /// Resilience activity of the run so far (halo-corruption counts are
  /// folded in from the timeline).
  [[nodiscard]] resilience::Report take_report();

  /// Map the final verdict to the unified SolverStatus, accounting for
  /// recovery: a converged run whose iterate the monitor rewrote along
  /// the way is kRecoveredConverged, not plain kConverged. Call before
  /// take_report().
  [[nodiscard]] SolverStatus status_for(StopVerdict v) const {
    switch (v) {
      case StopVerdict::kConverged:
        return iterate_mutations() > 0 ? SolverStatus::kRecoveredConverged
                                       : SolverStatus::kConverged;
      case StopVerdict::kDiverged:
        return SolverStatus::kDiverged;
      case StopVerdict::kCancelled:
        return SolverStatus::kAborted;
      case StopVerdict::kContinue:
      case StopVerdict::kIterLimit:
        break;
    }
    return SolverStatus::kMaxIterations;
  }

 private:
  void emit_recovery(telemetry::RecoveryEvent::Kind kind, index_t iter,
                     value_t residual, index_t detail = 0) {
    if (observer_ == nullptr) return;
    observer_->on_recovery_event({kind, iter, residual, detail});
  }

  void damped_restart(index_t iter, Vector& x, value_t& r,
                      const std::function<value_t(const Vector&)>& residual_fn);

  /// Record the estimate's step from the previous boundary (kappa).
  void track_contraction(value_t estimate);

  /// Whether the boundary after `iter` may go without an exact check.
  [[nodiscard]] bool can_skip(index_t iter, value_t estimate) const;

  StoppingCriteria crit_;
  resilience::ScenarioTimeline* timeline_;
  std::optional<resilience::CheckpointStore> checkpoint_;
  std::optional<resilience::OnlineResidualDetector> detector_;
  std::optional<resilience::Watchdog> watchdog_;
  index_t max_restarts_ = 0;
  value_t restart_damping_ = 0.5;
  index_t max_rollbacks_ = 0;
  index_t restarts_done_ = 0;
  bool may_skip_ = false;
  // estimate / exact over the exact checks so far: ratio_hi_ is the
  // R of the file comment, ratio_lo_ guards the divergence limit.
  index_t calibrations_ = 0;  ///< exact checks that measured a ratio
  value_t ratio_hi_ = 0.0;
  value_t ratio_lo_ = std::numeric_limits<value_t>::infinity();
  // estimate(t) / estimate(t - 1) over the last kContractionWindow
  // boundaries (1 where either was not finite): kappa is their minimum.
  std::array<value_t, kContractionWindow> steps_{};
  index_t next_step_ = 0;
  value_t last_estimate_ = std::numeric_limits<value_t>::infinity();
  std::vector<value_t> history_;
  std::vector<value_t> times_;
  resilience::Report report_;
  telemetry::SolveObserver* observer_ = nullptr;
};

}  // namespace bars::gpusim
