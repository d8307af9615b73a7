#pragma once

#include <cmath>
#include <cstdint>

#include "sparse/types.hpp"

/// \file simd_sweep.hpp
/// The vectorized block sweep shared by the ISA translation units
/// (simd_kernel_avx2.cpp: 4 rows per group, simd_kernel_avx512.cpp: 8
/// rows per group). Those files are compiled with ISA flags, so what
/// they see of the library is kept to raw pointers: no std::vector,
/// std::span or <algorithm> code is instantiated there, and the sweep
/// template has internal linkage. A weak (vague-linkage) symbol emitted
/// under -mavx2 or -mavx512f could be the copy the linker keeps for a
/// baseline caller and run illegal instructions on an older CPU;
/// tests/tools/check_isa_symbols.cmake fails the build's tests if one
/// appears.

namespace bars::backend::detail {

/// Raw-pointer view of one block's packed SELL-C layout (see
/// SimdBlockLayout in simd_kernel.hpp), C = the sweep's lane count.
struct SimdBlockView {
  index_t lo = 0;           ///< first owned row
  index_t m = 0;            ///< owned rows
  index_t full_groups = 0;  ///< m / C
  // Local split: group g's slots are [lgroup_ptr[g], lgroup_ptr[g + 1]),
  // slot k of lane l at packed index k * C + l; lcontig[g] != 0 when
  // every slot holds C consecutive columns.
  const index_t* lgroup_ptr = nullptr;
  const std::int32_t* lcol = nullptr;
  const value_t* lval = nullptr;
  const std::uint8_t* lcontig = nullptr;
  // Global split, same shape, columns index the halo snapshot.
  const index_t* ggroup_ptr = nullptr;
  const std::int32_t* gcol = nullptr;
  const value_t* gval = nullptr;
  const std::uint8_t* gcontig = nullptr;
  const value_t* diag = nullptr;
  // Sweep scratch, C * num_groups values each.
  value_t* scratch_s = nullptr;
  value_t* scratch_a = nullptr;
  value_t* scratch_b = nullptr;
};

/// One block update (the sweeps, the optional residual report, the
/// masked commit) at 4 and at 8 lanes. `mask` is the executor's failed
/// component mask over all rows (may be null); `residual_sq`, when
/// non-null, receives the block's residual contribution. Never
/// allocate. Both produce bit-identical results for finite iterates.
void simd4_update_block(const SimdBlockView& blk, const value_t* halo_values,
                        const value_t* rhs, value_t* x, value_t omega,
                        index_t sweeps, const std::uint8_t* mask,
                        value_t* residual_sq) noexcept;
void simd8_update_block(const SimdBlockView& blk, const value_t* halo_values,
                        const value_t* rhs, value_t* x, value_t omega,
                        index_t sweeps, const std::uint8_t* mask,
                        value_t* residual_sq) noexcept;

/// True when this binary contains the 4-lane (AVX2+FMA) and the 8-lane
/// (AVX-512F/VL) sweep; decided by compiler flag support at configure
/// time.
[[nodiscard]] bool simd4_compiled() noexcept;
[[nodiscard]] bool simd8_compiled() noexcept;

namespace {

/// acc -= vals[k] * source[cols[k]] over the group's slots [begin, end),
/// lane by lane in slot order. A contiguous group loads C consecutive
/// source values per slot instead of gathering them: the same values,
/// so the result is the same.
template <class V>
inline typename V::Vec fnmadd_slots(const std::int32_t* cols,
                                    const value_t* vals,
                                    const value_t* source, index_t begin,
                                    index_t end, bool contiguous,
                                    typename V::Vec acc) noexcept {
  constexpr index_t C = V::kLanes;
  if (contiguous) {
    for (index_t k = begin; k < end; ++k) {
      acc = V::fnmadd(V::load(vals + C * k), V::load(source + cols[C * k]),
                      acc);
    }
  } else {
    for (index_t k = begin; k < end; ++k) {
      acc = V::fnmadd(V::load(vals + C * k), V::gather(source, cols + C * k),
                      acc);
    }
  }
  return acc;
}

/// Lane l of the tail group, scalar, with the vector path's exact
/// operation sequence (one rounding per fnmadd).
inline value_t fnmadd_lane(const std::int32_t* cols, const value_t* vals,
                           const value_t* source, index_t begin, index_t end,
                           index_t lanes, index_t l, value_t acc) noexcept {
  for (index_t k = begin; k < end; ++k) {
    acc = std::fma(-vals[lanes * k + l], source[cols[lanes * k + l]], acc);
  }
  return acc;
}

/// The block sweep over C = V::kLanes rows per group. Every row runs the
/// same operation sequence whatever C is — rhs, the global slots, the
/// local slots (padding adds 0 * source[0]), divide by the diagonal,
/// weight — so x does not depend on the lane count. The residual
/// report keeps the 4-lane summation order: V::add_sq folds each group
/// into four partial sums by row index mod 4, rows past the last full
/// 4-row group sum separately, and the total is
/// (p0 + p1) + (p2 + p3) + tail. With kReport false a run that does not
/// ask for the report executes no extra row work.
template <class V, bool kReport>
void sweep_block(const SimdBlockView& view, const value_t* hv,
                 const value_t* rhs, value_t* x, value_t omega,
                 index_t sweeps, const std::uint8_t* mask,
                 [[maybe_unused]] value_t* residual_sq) noexcept {
  // A local copy: vector stores may alias anything, so fields read
  // through the reference would be reloaded after every store.
  const SimdBlockView blk = view;
  using Vec = typename V::Vec;
  constexpr index_t C = V::kLanes;
  const index_t m = blk.m;
  const index_t full = blk.full_groups;
  const value_t* xw = x + blk.lo;
  const value_t* b = rhs + blk.lo;
  const value_t* diag = blk.diag;
  value_t* s = blk.scratch_s;
  value_t* cur = blk.scratch_a;
  value_t* nxt = blk.scratch_b;

  const Vec vomega = V::set1(omega);
  const Vec vrest = V::set1(1.0 - omega);
  const value_t rest = 1.0 - omega;

  // First sweep, fused like the scalar kernel: the frozen
  // s_i = b_i - (global part) shares the accumulator chain with the
  // local part and is spilled only when later sweeps need it. The
  // residual report r_i = acc - a_ii x_i rides on the same accumulator.
  [[maybe_unused]] typename V::Sq4 sq4 = V::zero_sq();
  for (index_t g = 0; g < full; ++g) {
    const index_t r = C * g;
    Vec acc = V::load(b + r);
    acc = fnmadd_slots<V>(blk.gcol, blk.gval, hv, blk.ggroup_ptr[g],
                          blk.ggroup_ptr[g + 1], blk.gcontig[g] != 0, acc);
    if (sweeps > 1) V::store(s + r, acc);
    acc = fnmadd_slots<V>(blk.lcol, blk.lval, xw, blk.lgroup_ptr[g],
                          blk.lgroup_ptr[g + 1], blk.lcontig[g] != 0, acc);
    const Vec xq = V::load(xw + r);
    const Vec d = V::load(diag + r);
    if constexpr (kReport) V::add_sq(V::fnmadd(d, xq, acc), sq4);
    V::store(cur + r,
             V::fmadd(vrest, xq, V::mul(vomega, V::div(acc, d))));
  }
  // Tail rows (< C) run scalar over the same padded slices: lane l of
  // the last group.
  [[maybe_unused]] value_t part[4] = {0.0, 0.0, 0.0, 0.0};
  [[maybe_unused]] value_t tail_sq = 0.0;
  if constexpr (kReport) V::spill_sq(sq4, part);
  [[maybe_unused]] const index_t four_rows = m - m % 4;
  for (index_t r = C * full; r < m; ++r) {
    const index_t l = r - C * full;
    value_t acc = fnmadd_lane(blk.gcol, blk.gval, hv, blk.ggroup_ptr[full],
                              blk.ggroup_ptr[full + 1], C, l, b[r]);
    if (sweeps > 1) s[r] = acc;
    acc = fnmadd_lane(blk.lcol, blk.lval, xw, blk.lgroup_ptr[full],
                      blk.lgroup_ptr[full + 1], C, l, acc);
    if constexpr (kReport) {
      const value_t res = std::fma(-diag[r], xw[r], acc);
      value_t& sum = r < four_rows ? part[r % 4] : tail_sq;
      sum = std::fma(res, res, sum);
    }
    cur[r] = std::fma(rest, xw[r], omega * (acc / diag[r]));
  }
  if constexpr (kReport) {
    *residual_sq = (part[0] + part[1]) + (part[2] + part[3]) + tail_sq;
  }

  for (index_t sweep = 1; sweep < sweeps; ++sweep) {
    for (index_t g = 0; g < full; ++g) {
      const index_t r = C * g;
      Vec acc = V::load(s + r);
      acc = fnmadd_slots<V>(blk.lcol, blk.lval, cur, blk.lgroup_ptr[g],
                            blk.lgroup_ptr[g + 1], blk.lcontig[g] != 0, acc);
      const Vec xq = V::load(cur + r);
      const Vec d = V::load(diag + r);
      V::store(nxt + r,
               V::fmadd(vrest, xq, V::mul(vomega, V::div(acc, d))));
    }
    for (index_t r = C * full; r < m; ++r) {
      const index_t l = r - C * full;
      const value_t acc =
          fnmadd_lane(blk.lcol, blk.lval, cur, blk.lgroup_ptr[full],
                      blk.lgroup_ptr[full + 1], C, l, s[r]);
      nxt[r] = std::fma(rest, cur[r], omega * (acc / diag[r]));
    }
    value_t* const done = cur;
    cur = nxt;
    nxt = done;
  }

  // Commit the owned rows, honoring the component fault mask.
  value_t* out = x + blk.lo;
  if (mask != nullptr) {
    const std::uint8_t* failed = mask + blk.lo;
    for (index_t r = 0; r < m; ++r) {
      if (failed[r] == 0) out[r] = cur[r];
    }
  } else {
    for (index_t r = 0; r < m; ++r) out[r] = cur[r];
  }
}

/// Entry point body shared by simd4_update_block / simd8_update_block.
template <class V>
void update_block(const SimdBlockView& blk, const value_t* halo_values,
                  const value_t* rhs, value_t* x, value_t omega,
                  index_t sweeps, const std::uint8_t* mask,
                  value_t* residual_sq) noexcept {
  if (residual_sq != nullptr) {
    sweep_block<V, true>(blk, halo_values, rhs, x, omega, sweeps, mask,
                         residual_sq);
  } else {
    sweep_block<V, false>(blk, halo_values, rhs, x, omega, sweeps, mask,
                          nullptr);
  }
}

}  // namespace

}  // namespace bars::backend::detail
