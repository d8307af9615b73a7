#include "gpusim/stopping.hpp"

#include <algorithm>
#include <cmath>

namespace bars::gpusim {

// The recovery state (checkpoint_/detector_/watchdog_) is member
// std::optional, engaged once in the constructor and never reset. Every
// access below is behind an engagement guard, but opaque calls between
// guard and access (residual_fn, emit_recovery) force clang-tidy's flow
// analysis to conservatively drop the guard fact, so the check would
// flag accesses that cannot fail.
// NOLINTBEGIN(bugprone-unchecked-optional-access)

using telemetry::RecoveryEvent;

IterationMonitor::IterationMonitor(StoppingCriteria criteria,
                                   const resilience::Policy* policy,
                                   resilience::ScenarioTimeline* timeline,
                                   index_t num_blocks,
                                   telemetry::SolveObserver* observer)
    : crit_(criteria),
      timeline_(timeline),
      may_skip_(!criteria.record_history && policy == nullptr &&
                timeline == nullptr && observer == nullptr),
      observer_(observer) {
  steps_.fill(1.0);
  if (policy) {
    if (policy->checkpointing) {
      checkpoint_.emplace(policy->checkpoint);
      max_rollbacks_ = policy->checkpoint.max_rollbacks;
    }
    if (policy->online_detection) detector_.emplace(policy->detector);
    if (policy->watchdog) {
      watchdog_.emplace(policy->supervisor, num_blocks);
      max_restarts_ = policy->supervisor.max_restarts;
      restart_damping_ = policy->supervisor.restart_damping;
    }
  }
}

void IterationMonitor::record_initial(value_t r0) {
  history_.push_back(r0);
  times_.push_back(0.0);
  if (detector_) (void)detector_->push(r0);
  if (observer_) observer_->on_iteration({0, r0, 0.0});
}

void IterationMonitor::damped_restart(
    index_t iter, Vector& x, value_t& r,
    const std::function<value_t(const Vector&)>& residual_fn) {
  if (checkpoint_ && checkpoint_->has()) {
    x = checkpoint_->best().x;
  } else {
    std::fill(x.begin(), x.end(), value_t{0.0});
  }
  for (value_t& xi : x) xi *= restart_damping_;
  r = residual_fn(x);
  ++restarts_done_;
  ++report_.damped_restarts;
  if (detector_) detector_->reset(r);
  if (watchdog_) watchdog_->reset(r);
  emit_recovery(RecoveryEvent::Kind::kDampedRestart, iter, r);
}

void IterationMonitor::track_contraction(value_t estimate) {
  const bool both_finite = std::isfinite(estimate) &&
                           std::isfinite(last_estimate_) &&
                           last_estimate_ > 0.0;
  steps_[static_cast<std::size_t>(next_step_)] =
      both_finite ? estimate / last_estimate_ : 1.0;
  next_step_ = (next_step_ + 1) % kContractionWindow;
  last_estimate_ = estimate;
}

bool IterationMonitor::can_skip(index_t iter, value_t estimate) const {
  // estimate / ratio_hi_ and estimate / ratio_lo_ bracket the exact
  // residual as calibrated so far; skip only while the whole bracket,
  // widened by kConfirmMargin — and on the convergence side by one more
  // step as fast as the fastest recent one (kappa) — lies strictly
  // between tol and the divergence limit.
  const value_t kappa =
      std::min(value_t{1.0}, *std::min_element(steps_.begin(), steps_.end()));
  return may_skip_ && calibrations_ >= kCalibrationBoundaries &&
         iter < crit_.max_global_iters &&
         (crit_.cancel == nullptr || !crit_.cancel->requested()) &&
         std::isfinite(estimate) &&
         kappa * estimate > kConfirmMargin * ratio_hi_ * crit_.tol &&
         kConfirmMargin * estimate <= ratio_lo_ * crit_.divergence_limit;
}

StopVerdict IterationMonitor::on_global_iteration(
    index_t iter, value_t now, Vector& x,
    const std::function<value_t(const Vector&)>& residual_fn,
    std::span<const index_t> block_executions, value_t estimate) {
  if (may_skip_) track_contraction(estimate);
  if (can_skip(iter, estimate)) return StopVerdict::kContinue;
  value_t r = residual_fn(x);
  if (std::isfinite(estimate) && r > 0.0) {
    ratio_hi_ = std::max(ratio_hi_, estimate / r);
    ratio_lo_ = std::min(ratio_lo_, estimate / r);
    ++calibrations_;
  }
  history_.push_back(r);
  times_.push_back(now);
  if (observer_) observer_->on_iteration({iter, r, now});
  if (timeline_) timeline_->advance(iter);

  // Cooperative cancellation, honored before the recovery machinery
  // runs (an abandoned solve must not roll back, restart, or save
  // checkpoints). A converged iterate still reports convergence:
  // tripping the token cannot un-converge a finished solve.
  if (crit_.cancel != nullptr && crit_.cancel->requested() && r > crit_.tol) {
    return StopVerdict::kCancelled;
  }

  bool anomalous = false;
  if (detector_) {
    if (const auto anomaly = detector_->push(r)) {
      ++report_.detections;
      report_.detection_iterations.push_back(iter);
      anomalous = true;
      emit_recovery(RecoveryEvent::Kind::kAnomalyDetected, iter, r,
                    static_cast<index_t>(anomaly->kind));
      // Roll back on corruption signatures (jump / non-finite). A stall
      // is dead components, not a bad iterate — rolling back cannot
      // help; that is the watchdog's reassignment case.
      if (anomaly->kind != resilience::AnomalyKind::kStall && checkpoint_ &&
          checkpoint_->has() && report_.rollbacks < max_rollbacks_) {
        x = checkpoint_->best().x;
        r = residual_fn(x);
        ++report_.rollbacks;
        detector_->reset(r);
        if (watchdog_) watchdog_->reset(r);
        emit_recovery(RecoveryEvent::Kind::kRollback, iter, r);
      }
    }
  }

  if (watchdog_) {
    const resilience::WatchdogVerdict v =
        watchdog_->observe(iter, r, block_executions);
    for (index_t b : v.newly_stalled_blocks) {
      report_.stalled_blocks.push_back(b);
      emit_recovery(RecoveryEvent::Kind::kBlockStalled, iter, r, b);
    }
    if (v.reassign && timeline_) {
      const index_t freed = timeline_->reassign_failed_components();
      if (freed > 0) {
        ++report_.watchdog_reassignments;
        report_.components_reassigned += freed;
        emit_recovery(RecoveryEvent::Kind::kWatchdogReassignment, iter, r,
                      freed);
      }
    }
    if (v.damped_restart && restarts_done_ < max_restarts_) {
      damped_restart(iter, x, r, residual_fn);
    }
  }

  // Checkpoint only clean iterates: an anomalous residual must never
  // become the rollback target.
  if (checkpoint_ && !anomalous) {
    const index_t before = checkpoint_->saved_count();
    checkpoint_->observe(iter, r, x);
    report_.checkpoints_saved = checkpoint_->saved_count();
    if (report_.checkpoints_saved > before) {
      emit_recovery(RecoveryEvent::Kind::kCheckpointSaved, iter, r);
    }
  }

  if (r <= crit_.tol) return StopVerdict::kConverged;
  if (!std::isfinite(r) || r > crit_.divergence_limit) {
    if (watchdog_ && restarts_done_ < max_restarts_) {
      damped_restart(iter, x, r, residual_fn);
      if (r <= crit_.tol) return StopVerdict::kConverged;
      if (std::isfinite(r) && r <= crit_.divergence_limit) {
        if (iter >= crit_.max_global_iters) return StopVerdict::kIterLimit;
        return StopVerdict::kContinue;
      }
    }
    return StopVerdict::kDiverged;
  }
  if (iter >= crit_.max_global_iters) return StopVerdict::kIterLimit;
  return StopVerdict::kContinue;
}

resilience::Report IterationMonitor::take_report() {
  if (timeline_) report_.halo_corruptions = timeline_->halo_corruptions();
  return std::move(report_);
}

// NOLINTEND(bugprone-unchecked-optional-access)

}  // namespace bars::gpusim
