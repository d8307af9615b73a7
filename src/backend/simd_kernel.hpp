#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "gpusim/block_kernel.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

/// \file simd_kernel.hpp
/// The SIMD backend's kernel: the same two-stage block sweep as the
/// scalar BlockJacobiKernel, but over a vector-width-padded slice
/// layout so each FMA processes C block rows at once — C = 8 on a CPU
/// with AVX-512F/VL, else C = 4 (AVX2+FMA), chosen at construction.
///
/// Layout (per block, SELL-C): rows are cut into groups of C
/// consecutive rows; within a group every row is padded to the group's
/// maximum entry count, and entries are stored lane-interleaved — slot
/// k of lane l lives at packed index (base + k) * C + l — separately
/// for the block-local split (column ids local to the block, read from
/// the iterate / sweep scratch) and the global split (positions into
/// the halo snapshot). Padding entries carry value 0 and column 0, so
/// they contribute nothing while keeping every lane's trip count
/// identical. A group whose every slot holds C consecutive columns is
/// flagged contiguous and loads them with one plain vector load instead
/// of a gather. Column ids are stored as int32 (the gather index
/// width); value data stays double.
///
/// Numerics policy: identical accumulation ORDER to the scalar kernel
/// (rhs, minus global entries, minus local entries, divide by the
/// diagonal) — only the grouping of multiply-add into FMA changes
/// rounding. docs/BACKENDS.md documents the resulting elementwise
/// tolerance; bench/perf_suite enforces it on the paper matrices. The
/// 4- and 8-lane sweeps give bit-identical iterates and residual
/// reports (simd_sweep.hpp).
///
/// Restrictions (throws backend_unsupported): Jacobi local sweeps only,
/// no overlap. Adaptive per-block sweep counts are supported.

namespace bars::backend {

namespace detail {

/// True when this binary contains the sweep at `lanes` rows per group
/// (4: AVX2+FMA, 8: AVX-512F/VL; compiler flag support decided at
/// configure time) and the CPU we are running on executes it.
[[nodiscard]] bool simd_lanes_available(index_t lanes) noexcept;
/// Rows per vector group the kernel sweeps with on this machine: 8 when
/// simd_lanes_available(8), else 4.
[[nodiscard]] index_t simd_native_lanes() noexcept;

/// A lane count requested explicitly (tests compare the widths); 0
/// means simd_native_lanes().
struct SimdLanes {
  index_t value = 0;
};

/// Packed per-block slice layout consumed by the vector sweep, for
/// `lanes` rows per group.
struct SimdBlockLayout {
  index_t lo = 0;  ///< owned row range [lo, hi)
  index_t hi = 0;
  index_t m = 0;            ///< hi - lo
  index_t full_groups = 0;  ///< m / lanes (vector-width groups)
  index_t num_groups = 0;   ///< ceil(m / lanes); last may be lane-padded

  std::vector<index_t> halo;  ///< global indices read from outside

  // Local split (columns as block-local row ids), lane-interleaved.
  // Group g's entries occupy packed indices [lgroup_ptr[g] * lanes,
  // lgroup_ptr[g + 1] * lanes); lcontig[g] != 0 when every slot of the
  // group holds `lanes` consecutive columns.
  std::vector<index_t> lgroup_ptr;
  std::vector<std::int32_t> lcol;
  std::vector<value_t> lval;
  std::vector<std::uint8_t> lcontig;

  // Global split (columns as positions into `halo`), lane-interleaved.
  std::vector<index_t> ggroup_ptr;
  std::vector<std::int32_t> gcol;
  std::vector<value_t> gval;
  std::vector<std::uint8_t> gcontig;

  std::vector<value_t> diag;  ///< a_ii per local row (size m)

  // Sweep scratch, padded to lanes * num_groups so full-width vector
  // stores on the last full group stay in bounds. `mutable` for the
  // same reason as the scalar kernel: update() is logically const and
  // distinct blocks own distinct scratch.
  mutable std::vector<value_t> scratch_s;
  mutable std::vector<value_t> scratch_a;
  mutable std::vector<value_t> scratch_b;
};

}  // namespace detail

/// Can the SIMD backend run here (compiled in AND cpu supports it)?
[[nodiscard]] bool simd_available() noexcept;

/// BlockSweepKernel over the padded slice layout above. Construct
/// through the backend registry; throws backend_unsupported when
/// simd_available() is false or the configuration needs Gauss-Seidel
/// sweeps or overlap.
class SimdBlockSweepKernel final : public BlockSweepKernel {
 public:
  SimdBlockSweepKernel(const Csr& a, const Vector& b, RowPartition partition,
                       const KernelConfig& config);
  /// As above at an explicit lane count (4 or 8); throws
  /// backend_unsupported when this machine cannot run it.
  SimdBlockSweepKernel(const Csr& a, const Vector& b, RowPartition partition,
                       const KernelConfig& config, detail::SimdLanes lanes);

  [[nodiscard]] index_t num_blocks() const override;
  [[nodiscard]] index_t num_rows() const override;
  [[nodiscard]] std::span<const index_t> halo(index_t block) const override;
  [[nodiscard]] std::pair<index_t, index_t> rows(
      index_t block) const override;

  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x,
              const gpusim::ExecContext& ctx) const override;

  /// No overlap by construction, per-block scratch: always safe.
  [[nodiscard]] bool parallel_commit_safe() const override { return true; }

  [[nodiscard]] index_t local_iters() const noexcept override {
    return local_iters_;
  }
  [[nodiscard]] const RowPartition& partition() const noexcept override {
    return partition_;
  }
  [[nodiscard]] index_t overlap() const noexcept override { return 0; }

  void set_per_block_iters(std::vector<index_t> per_block) override;
  [[nodiscard]] index_t block_local_iters(index_t block) const override;

  void set_rhs(const Vector& b) override;
  [[nodiscard]] const Vector& rhs() const noexcept override { return *b_; }

  [[nodiscard]] std::string_view backend_name() const noexcept override {
    return "simd";
  }

  /// Rows per vector group: 8 (AVX-512) or 4 (AVX2).
  [[nodiscard]] index_t vector_width() const noexcept { return lanes_; }
  /// Block `block`'s packed layout (read-only; tests inspect it).
  [[nodiscard]] const detail::SimdBlockLayout& layout(index_t block) const {
    return blocks_[static_cast<std::size_t>(block)];
  }

 private:
  const Vector* b_;
  RowPartition partition_;
  index_t local_iters_;
  value_t omega_;
  index_t lanes_;
  std::vector<detail::SimdBlockLayout> blocks_;
  std::vector<index_t> per_block_iters_;  ///< empty = uniform local_iters_
};

}  // namespace bars::backend
