#pragma once

#include <optional>

#include "core/block_async.hpp"
#include "core/solver_types.hpp"
#include "resilience/recovery.hpp"

/// \file silent_error.hpp
/// Silent-error (SDC) injection and detection — the closing thought of
/// the paper's Section 4.5: "a convergence delay or non-converging
/// sequence of solution approximations indicates that a silent error
/// has occurred ... asynchronous methods can be used to detect silent
/// errors." We inject bit-flip-style corruptions into the iterate and
/// detect them from the residual history alone.

namespace bars {

/// A silent corruption: at global iteration `at`, component `component`
/// is overwritten with `magnitude` (no error signal — the solver only
/// sees its effect on the residual). component < 0 picks a
/// seed-dependent component.
struct SilentErrorPlan {
  index_t at = 10;
  index_t component = -1;
  value_t magnitude = 1.0e6;
  std::uint64_t seed = 4321;
};

/// Residual-history anomaly detector. A healthy relaxation run
/// contracts every iteration by roughly its asymptotic factor; a silent
/// corruption appears as a residual *jump* (ratio >> 1) or a long
/// stagnation. Both thresholds are relative to the recent contraction
/// trend, so no a-priori rate knowledge is needed.
struct SilentErrorReport {
  bool detected = false;
  index_t at_iteration = -1;   ///< first anomalous history index
  value_t jump_ratio = 0.0;    ///< residual ratio at the anomaly
};

struct DetectorOptions {
  /// Flag when r_{k+1} / r_k exceeds this multiple of the recent trend.
  value_t jump_factor = 10.0;
  /// Flag when the residual fails to contract by at least this factor
  /// over `stall_window` iterations (while far from the rounding floor).
  index_t stall_window = 10;
  value_t stall_factor = 0.9;
  value_t floor = 1e-13;
  /// Iterations to establish the trend before detection arms.
  index_t warmup = 3;
};

/// Scan a residual history for corruption signatures. Robust to
/// degenerate inputs: empty/one-entry histories, histories already at
/// the rounding floor, and warmup >= history.size() all return
/// detected = false. Implemented as a replay through the streaming
/// detector below, so batch and online verdicts always agree.
[[nodiscard]] SilentErrorReport detect_silent_error(
    const std::vector<value_t>& history, const DetectorOptions& opts = {});

/// Online/streaming mode of the same detector: push one residual per
/// global iteration and the anomaly is reported the moment it appears,
/// enabling mid-run rollback instead of post-hoc diagnosis. This is
/// what the executors run when BlockAsyncOptions::resilience enables
/// online_detection.
[[nodiscard]] resilience::OnlineResidualDetector make_online_detector(
    const DetectorOptions& opts = {});

/// DetectorOptions -> the resilience layer's equivalent.
[[nodiscard]] resilience::AnomalyOptions to_anomaly_options(
    const DetectorOptions& opts);

/// Run async-(k) with a silent corruption injected, returning the
/// solver result plus the detector's verdict on its residual history.
/// The run is block_async_solve(a, b, opts) with the kernel wrapped by
/// the injector (sdc unset: no injection) and the residual history
/// always recorded; every other option is honoured as given.
struct SdcRunResult {
  BlockAsyncResult solve;
  SilentErrorReport report;
};

[[nodiscard]] SdcRunResult block_async_solve_with_sdc(
    const Csr& a, const Vector& b, const BlockAsyncOptions& opts,
    const std::optional<SilentErrorPlan>& sdc);

}  // namespace bars
