#include "backend/simd_kernel.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "backend/simd_sweep.hpp"
#include "common/annotations.hpp"
#include "common/check.hpp"

namespace bars::backend {

namespace detail {

bool simd_lanes_available(index_t lanes) noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  const bool avx2 = simd4_compiled() && __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma");
  if (lanes == 4) return avx2;
  if (lanes == 8) {
    return avx2 && simd8_compiled() && __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vl");
  }
#endif
  (void)lanes;
  return false;
}

index_t simd_native_lanes() noexcept {
  return simd_lanes_available(8) ? 8 : 4;
}

}  // namespace detail

bool simd_available() noexcept { return detail::simd_lanes_available(4); }

namespace {

/// True when every slot in [begin, end) holds `lanes` consecutive
/// columns, so one plain load reads what the gather would.
std::uint8_t contiguous_slots(const std::vector<std::int32_t>& col,
                              index_t lanes, index_t begin, index_t end) {
  for (index_t k = begin; k < end; ++k) {
    const std::int32_t* slot = col.data() + lanes * k;
    for (index_t l = 1; l < lanes; ++l) {
      if (slot[l] != slot[0] + l) return 0;
    }
  }
  return 1;
}

/// Pack block [blk.lo, blk.hi) of `a` into SELL-C slices straight from
/// CSR: the halo, then a count pass (each group's slot count is its
/// widest row, per split), then one fill pass over the rows into arrays
/// sized once and zeroed (zero = padding: value 0 at column 0, which
/// reads an in-bounds element and multiplies it by zero).
void pack_block(const Csr& a, index_t lanes, detail::SimdBlockLayout& blk) {
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const index_t lo = blk.lo;
  const index_t hi = blk.hi;
  const auto owned = [&](index_t j) { return j >= lo && j < hi; };

  // The halo (sorted unique columns outside the block) — identical to
  // the scalar kernel, so both backends snapshot the same values and
  // see the same staleness.
  for (index_t p = row_ptr[lo]; p < row_ptr[hi]; ++p) {
    if (!owned(col_idx[p])) blk.halo.push_back(col_idx[p]);
  }
  std::sort(blk.halo.begin(), blk.halo.end());
  blk.halo.erase(std::unique(blk.halo.begin(), blk.halo.end()),
                 blk.halo.end());

  // Count pass.
  const std::size_t groups = static_cast<std::size_t>(blk.num_groups);
  blk.lgroup_ptr.assign(groups + 1, 0);
  blk.ggroup_ptr.assign(groups + 1, 0);
  for (index_t g = 0; g < blk.num_groups; ++g) {
    index_t lwidth = 0;
    index_t gwidth = 0;
    for (index_t i = lo + lanes * g; i < std::min(lo + lanes * (g + 1), hi);
         ++i) {
      index_t nl = 0;
      index_t ng = 0;
      for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const index_t j = col_idx[p];
        if (j == i) continue;
        if (owned(j)) {
          ++nl;
        } else {
          ++ng;
        }
      }
      lwidth = std::max(lwidth, nl);
      gwidth = std::max(gwidth, ng);
    }
    const std::size_t gi = static_cast<std::size_t>(g);
    blk.lgroup_ptr[gi + 1] = blk.lgroup_ptr[gi] + lwidth;
    blk.ggroup_ptr[gi + 1] = blk.ggroup_ptr[gi] + gwidth;
  }
  const std::size_t lslots =
      static_cast<std::size_t>(lanes * blk.lgroup_ptr.back());
  const std::size_t gslots =
      static_cast<std::size_t>(lanes * blk.ggroup_ptr.back());
  blk.lcol.assign(lslots, 0);
  blk.lval.assign(lslots, 0.0);
  blk.gcol.assign(gslots, 0);
  blk.gval.assign(gslots, 0.0);
  blk.diag.assign(static_cast<std::size_t>(blk.m), 0.0);

  // Fill pass: row i is lane (i - lo) % lanes of group (i - lo) / lanes.
  for (index_t i = lo; i < hi; ++i) {
    const index_t r = i - lo;
    const std::size_t g = static_cast<std::size_t>(r / lanes);
    const index_t l = r % lanes;
    std::size_t lk = static_cast<std::size_t>(lanes * blk.lgroup_ptr[g] + l);
    std::size_t gk = static_cast<std::size_t>(lanes * blk.ggroup_ptr[g] + l);
    value_t diag = 0.0;
    for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const index_t j = col_idx[p];
      if (j == i) {
        diag = values[p];
      } else if (owned(j)) {
        blk.lcol[lk] = static_cast<std::int32_t>(j - lo);
        blk.lval[lk] = values[p];
        lk += static_cast<std::size_t>(lanes);
      } else {
        const auto it = std::lower_bound(blk.halo.begin(), blk.halo.end(), j);
        blk.gcol[gk] = static_cast<std::int32_t>(it - blk.halo.begin());
        blk.gval[gk] = values[p];
        gk += static_cast<std::size_t>(lanes);
      }
    }
    if (diag == 0.0) {
      throw std::invalid_argument("SimdBlockSweepKernel: zero diagonal entry");
    }
    blk.diag[static_cast<std::size_t>(r)] = diag;
  }

  blk.lcontig.resize(groups);
  blk.gcontig.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    blk.lcontig[g] = contiguous_slots(blk.lcol, lanes, blk.lgroup_ptr[g],
                                      blk.lgroup_ptr[g + 1]);
    blk.gcontig[g] = contiguous_slots(blk.gcol, lanes, blk.ggroup_ptr[g],
                                      blk.ggroup_ptr[g + 1]);
  }
}

}  // namespace

SimdBlockSweepKernel::SimdBlockSweepKernel(const Csr& a, const Vector& b,
                                           RowPartition partition,
                                           const KernelConfig& config)
    : SimdBlockSweepKernel(a, b, std::move(partition), config,
                           detail::SimdLanes{}) {}

SimdBlockSweepKernel::SimdBlockSweepKernel(const Csr& a, const Vector& b,
                                           RowPartition partition,
                                           const KernelConfig& config,
                                           detail::SimdLanes lanes)
    : b_(&b),
      partition_(std::move(partition)),
      local_iters_(config.local_iters),
      omega_(config.local_omega),
      lanes_(lanes.value == 0 ? detail::simd_native_lanes() : lanes.value) {
  if (!simd_available()) {
    throw backend_unsupported(
        "simd backend: AVX2+FMA not available on this machine/build");
  }
  if (lanes_ != 4 && lanes_ != 8) {
    throw std::invalid_argument(
        "SimdBlockSweepKernel: lane count must be 4 or 8");
  }
  if (!detail::simd_lanes_available(lanes_)) {
    throw backend_unsupported(
        "simd backend: the 8-lane sweep needs AVX-512F/VL on this "
        "machine/build");
  }
  if (config.sweep != LocalSweep::kJacobi) {
    throw backend_unsupported(
        "simd backend: only Jacobi local sweeps are vectorized");
  }
  if (config.overlap != 0) {
    throw backend_unsupported("simd backend: overlap is not supported");
  }
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("SimdBlockSweepKernel: matrix not square");
  }
  if (partition_.total_rows() != a.rows() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("SimdBlockSweepKernel: size mismatch");
  }
  if (local_iters_ <= 0) {
    throw std::invalid_argument(
        "SimdBlockSweepKernel: local_iters must be > 0");
  }
  if (omega_ <= 0.0 || omega_ >= 2.0) {
    throw std::invalid_argument("SimdBlockSweepKernel: omega must be in (0,2)");
  }
  if (a.rows() > std::numeric_limits<std::int32_t>::max()) {
    throw backend_unsupported(
        "simd backend: matrix exceeds 32-bit gather index range");
  }

  const index_t q = partition_.num_blocks();
  blocks_.resize(static_cast<std::size_t>(q));
  for (index_t bi = 0; bi < q; ++bi) {
    detail::SimdBlockLayout& blk = blocks_[static_cast<std::size_t>(bi)];
    const RowBlock range = partition_.block(bi);
    blk.lo = range.begin;
    blk.hi = range.end;
    blk.m = blk.hi - blk.lo;
    blk.full_groups = blk.m / lanes_;
    blk.num_groups = (blk.m + lanes_ - 1) / lanes_;
    pack_block(a, lanes_, blk);

    // Scratch padded to full groups so vector stores never run past
    // the end; update() never allocates.
    const std::size_t padded =
        static_cast<std::size_t>(lanes_ * blk.num_groups);
    blk.scratch_s.assign(padded, 0.0);
    blk.scratch_a.assign(padded, 0.0);
    blk.scratch_b.assign(padded, 0.0);
  }
}

void SimdBlockSweepKernel::set_per_block_iters(
    std::vector<index_t> per_block) {
  if (static_cast<index_t>(per_block.size()) != num_blocks()) {
    throw std::invalid_argument(
        "set_per_block_iters: size must equal num_blocks()");
  }
  for (index_t k : per_block) {
    if (k <= 0) {
      throw std::invalid_argument(
          "set_per_block_iters: sweep counts must be >= 1");
    }
  }
  per_block_iters_ = std::move(per_block);
}

void SimdBlockSweepKernel::set_rhs(const Vector& b) {
  if (static_cast<index_t>(b.size()) != num_rows()) {
    throw std::invalid_argument("set_rhs: size must equal num_rows()");
  }
  b_ = &b;
}

index_t SimdBlockSweepKernel::block_local_iters(index_t block) const {
  return per_block_iters_.empty()
             ? local_iters_
             : per_block_iters_[static_cast<std::size_t>(block)];
}

index_t SimdBlockSweepKernel::num_blocks() const {
  return partition_.num_blocks();
}

index_t SimdBlockSweepKernel::num_rows() const {
  return partition_.total_rows();
}

std::span<const index_t> SimdBlockSweepKernel::halo(index_t block) const {
  return blocks_[static_cast<std::size_t>(block)].halo;
}

std::pair<index_t, index_t> SimdBlockSweepKernel::rows(index_t block) const {
  const detail::SimdBlockLayout& blk =
      blocks_[static_cast<std::size_t>(block)];
  return {blk.lo, blk.hi};
}

BARS_HOT_NOALLOC void SimdBlockSweepKernel::update(
    index_t block, std::span<const value_t> halo_values,
    std::span<value_t> x, const gpusim::ExecContext& ctx) const {
  const detail::SimdBlockLayout& blk =
      blocks_[static_cast<std::size_t>(block)];
  BARS_DCHECK(halo_values.size() == blk.halo.size())
      << "block " << block << " halo size " << halo_values.size()
      << " != " << blk.halo.size() << " at vt " << ctx.virtual_time;
  BARS_DCHECK(static_cast<index_t>(x.size()) == num_rows())
      << "block " << block << " iterate size " << x.size() << " at vt "
      << ctx.virtual_time;
  const detail::SimdBlockView view{.lo = blk.lo,
                                   .m = blk.m,
                                   .full_groups = blk.full_groups,
                                   .lgroup_ptr = blk.lgroup_ptr.data(),
                                   .lcol = blk.lcol.data(),
                                   .lval = blk.lval.data(),
                                   .lcontig = blk.lcontig.data(),
                                   .ggroup_ptr = blk.ggroup_ptr.data(),
                                   .gcol = blk.gcol.data(),
                                   .gval = blk.gval.data(),
                                   .gcontig = blk.gcontig.data(),
                                   .diag = blk.diag.data(),
                                   .scratch_s = blk.scratch_s.data(),
                                   .scratch_a = blk.scratch_a.data(),
                                   .scratch_b = blk.scratch_b.data()};
  const std::uint8_t* mask =
      ctx.failed_components ? ctx.failed_components->data() : nullptr;
  if (lanes_ == 8) {
    detail::simd8_update_block(view, halo_values.data(), b_->data(), x.data(),
                               omega_, block_local_iters(block), mask,
                               ctx.residual_sq);
  } else {
    detail::simd4_update_block(view, halo_values.data(), b_->data(), x.data(),
                               omega_, block_local_iters(block), mask,
                               ctx.residual_sq);
  }
}

}  // namespace bars::backend
