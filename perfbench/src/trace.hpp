#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "common.hpp"

/// \file trace.hpp
/// Outside-in tracing for the per-layer run: spans recorded by the
/// benchmark around its calls into the library's public functions, and
/// a forwarding BlockSweepKernel that spans every block update the
/// executor makes. Nothing inside the library is instrumented.

namespace perfbench {

/// One timed interval. `parent` is the index of the enclosing span (-1
/// for a root); `op` identifies the solve or request the span belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// In-memory span store; single-threaded by design (every span is
/// opened and closed on the benchmark's own thread or on the serial
/// executor it drives). Written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve);

  [[nodiscard]] std::int32_t begin(const char* name, std::int32_t parent,
                                   std::uint64_t op);
  void end(std::int32_t id);

  [[nodiscard]] double seconds(std::int32_t id) const;

  /// Time-ledger of one span: its duration, the summed durations of its
  /// direct children, and its self time (duration minus the part of the
  /// interval the children cover). The ledger reconciles, i.e.
  /// children_s + self_s == wall_s, when the children neither overlap
  /// nor leave the parent's interval.
  struct Ledger {
    double wall_s = 0.0;
    double children_s = 0.0;
    double self_s = 0.0;
  };
  /// Ledgers for the given spans, computed from all recorded spans.
  [[nodiscard]] std::vector<Ledger> ledgers(
      const std::vector<std::int32_t>& ids) const;

  /// One JSON object per span (name, start/end ns, parent, op).
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Forwards every BlockSweepKernel call to `inner` and wraps update()
/// in a "backend.update" span under the current solve span. Also counts
/// updates, halo values handed in, and the bytes a CSR sweep of the
/// updated block moves (computed from its nnz, rows, local_iters and
/// halo size, not measured).
///
/// Serial use only: the tracer is not thread-safe, so the decorator
/// reports parallel_commit_safe() == false and the executor keeps its
/// serial event loop (which is also what num_workers = 0 selects).
class TracingKernel final : public bars::backend::BlockSweepKernel {
 public:
  TracingKernel(bars::backend::BlockSweepKernel& inner, const bars::Csr& a,
                Tracer& tracer);

  /// Make `span` (with id `op`) the parent of the next update spans and
  /// zero the counters.
  void start_solve(std::int32_t span, std::uint64_t op);

  [[nodiscard]] std::uint64_t updates() const { return updates_; }
  [[nodiscard]] std::uint64_t halo_values() const { return halo_values_; }
  [[nodiscard]] double computed_bytes() const { return bytes_; }

  [[nodiscard]] bars::index_t num_blocks() const override;
  [[nodiscard]] bars::index_t num_rows() const override;
  [[nodiscard]] std::span<const bars::index_t> halo(
      bars::index_t block) const override;
  [[nodiscard]] std::pair<bars::index_t, bars::index_t> rows(
      bars::index_t block) const override;
  void update(bars::index_t block, std::span<const bars::value_t> halo_values,
              std::span<bars::value_t> x,
              const bars::gpusim::ExecContext& ctx) const override;
  [[nodiscard]] bool parallel_commit_safe() const override { return false; }

  void set_rhs(const bars::Vector& b) override;
  [[nodiscard]] const bars::Vector& rhs() const noexcept override;
  [[nodiscard]] const bars::RowPartition& partition() const noexcept override;
  [[nodiscard]] bars::index_t local_iters() const noexcept override;
  [[nodiscard]] bars::index_t overlap() const noexcept override;
  void set_per_block_iters(std::vector<bars::index_t> per_block) override;
  [[nodiscard]] bars::index_t block_local_iters(
      bars::index_t block) const override;
  [[nodiscard]] std::string_view backend_name() const noexcept override;

 private:
  void compute_block_bytes();

  bars::backend::BlockSweepKernel& inner_;
  const bars::Csr& a_;
  Tracer& tracer_;
  std::vector<double> block_bytes_;
  std::int32_t parent_ = -1;
  std::uint64_t op_ = 0;
  mutable std::uint64_t updates_ = 0;
  mutable std::uint64_t halo_values_ = 0;
  mutable double bytes_ = 0.0;
};

}  // namespace perfbench
