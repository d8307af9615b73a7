#include "core/silent_error.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "stats/rng.hpp"

namespace bars {

namespace {

/// Kernel decorator that injects one silent corruption into the shared
/// iterate after the trigger iteration. update() counts calls in
/// mutable state, so the decorator opts out of parallel commits.
class SdcKernel final : public backend::BlockSweepKernel {
 public:
  SdcKernel(backend::BlockSweepKernel& inner, SilentErrorPlan plan)
      : inner_(inner), plan_(plan) {
    if (plan_.component >= inner.num_rows()) {
      throw std::invalid_argument("SilentErrorPlan: component out of range");
    }
    if (plan_.component < 0) {
      Rng rng(plan_.seed);
      plan_.component = rng.uniform_int(0, inner.num_rows() - 1);
    }
  }

  [[nodiscard]] index_t num_blocks() const override {
    return inner_.num_blocks();
  }
  [[nodiscard]] index_t num_rows() const override {
    return inner_.num_rows();
  }
  [[nodiscard]] std::span<const index_t> halo(index_t b) const override {
    return inner_.halo(b);
  }
  [[nodiscard]] std::pair<index_t, index_t> rows(index_t b) const override {
    return inner_.rows(b);
  }

  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x,
              const gpusim::ExecContext& ctx) const override {
    inner_.update(block, halo_values, x, ctx);
    ++updates_;
    if (!injected_ &&
        updates_ >= plan_.at * inner_.num_blocks()) {
      // The corruption lands in device memory unnoticed — any block's
      // store can be hit, so we do not wait for the owner.
      x[plan_.component] = plan_.magnitude;
      injected_ = true;
    }
  }
  [[nodiscard]] bool parallel_commit_safe() const override { return false; }

  void set_rhs(const Vector& b) override { inner_.set_rhs(b); }
  [[nodiscard]] const Vector& rhs() const noexcept override {
    return inner_.rhs();
  }
  [[nodiscard]] const RowPartition& partition() const noexcept override {
    return inner_.partition();
  }
  [[nodiscard]] index_t local_iters() const noexcept override {
    return inner_.local_iters();
  }
  [[nodiscard]] index_t overlap() const noexcept override {
    return inner_.overlap();
  }
  void set_per_block_iters(std::vector<index_t> per_block) override {
    inner_.set_per_block_iters(std::move(per_block));
  }
  [[nodiscard]] index_t block_local_iters(index_t block) const override {
    return inner_.block_local_iters(block);
  }
  [[nodiscard]] std::string_view backend_name() const noexcept override {
    return inner_.backend_name();
  }

 private:
  backend::BlockSweepKernel& inner_;
  SilentErrorPlan plan_;
  mutable index_t updates_ = 0;
  mutable bool injected_ = false;
};

}  // namespace

resilience::AnomalyOptions to_anomaly_options(const DetectorOptions& opts) {
  resilience::AnomalyOptions a;
  a.jump_factor = opts.jump_factor;
  a.stall_window = opts.stall_window;
  a.stall_factor = opts.stall_factor;
  a.floor = opts.floor;
  a.warmup = opts.warmup;
  return a;
}

resilience::OnlineResidualDetector make_online_detector(
    const DetectorOptions& opts) {
  return resilience::OnlineResidualDetector(to_anomaly_options(opts));
}

SilentErrorReport detect_silent_error(const std::vector<value_t>& history,
                                      const DetectorOptions& opts) {
  SilentErrorReport rep;
  if (history.size() < 2) return rep;
  resilience::OnlineResidualDetector detector = make_online_detector(opts);
  for (value_t r : history) {
    if (const auto anomaly = detector.push(r)) {
      rep.detected = true;
      rep.at_iteration = anomaly->at_iteration;
      rep.jump_ratio = anomaly->jump_ratio;
      return rep;
    }
  }
  return rep;
}

SdcRunResult block_async_solve_with_sdc(
    const Csr& a, const Vector& b, const BlockAsyncOptions& opts,
    const std::optional<SilentErrorPlan>& sdc) {
  const std::unique_ptr<backend::BlockSweepKernel> base =
      make_block_async_kernel(a, b, opts);
  backend::BlockSweepKernel* kernel = base.get();
  std::optional<SdcKernel> wrapped;
  if (sdc) kernel = &wrapped.emplace(*base, *sdc);
  // The detector reads the residual history, so it is always recorded.
  BlockAsyncOptions run = opts;
  run.solve.record_history = true;

  SdcRunResult out;
  out.solve = block_async_solve_with_kernel(a, b, *kernel, run);
  out.report = detect_silent_error(out.solve.solve.residual_history);
  return out;
}

}  // namespace bars
