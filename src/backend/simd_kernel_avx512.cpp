/// \file simd_kernel_avx512.cpp
/// The 8-lane block sweep (one __m512d per group of eight rows). Built
/// with -mavx512f -mavx512vl -mavx2 -mfma (per-file, see
/// src/backend/CMakeLists.txt) and reached only when the runtime cpu
/// probe in simd_kernel.cpp finds AVX-512F/VL. When the compiler cannot
/// target AVX-512 the file degrades to a stub and simd8_compiled()
/// reports false.

#include "backend/simd_sweep.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX2__) && \
    defined(__FMA__)
#define BARS_BACKEND_HAS_AVX512 1
#include <immintrin.h>
#else
#define BARS_BACKEND_HAS_AVX512 0
#endif

namespace bars::backend::detail {

bool simd8_compiled() noexcept { return BARS_BACKEND_HAS_AVX512 != 0; }

#if BARS_BACKEND_HAS_AVX512

namespace {

/// sweep_block's ISA wrapper: eight doubles per vector. The residual
/// partial sums stay four wide (the 4-lane kernel's order): each group
/// adds its low four rows, then its high four.
struct Avx512 {
  using Vec = __m512d;
  using Sq4 = __m256d;
  static constexpr index_t kLanes = 8;

  static Vec load(const value_t* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(value_t* p, Vec v) noexcept { _mm512_storeu_pd(p, v); }
  static Vec set1(value_t v) noexcept { return _mm512_set1_pd(v); }
  // Gather and extract use the all-lanes masked forms: the unmasked
  // intrinsics' undefined source trips GCC's -Wmaybe-uninitialized.
  static Vec gather(const value_t* base, const std::int32_t* idx) noexcept {
    return _mm512_mask_i32gather_pd(
        _mm512_setzero_pd(), 0xFF,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), base, 8);
  }
  static Vec fnmadd(Vec a, Vec b, Vec c) noexcept {
    return _mm512_fnmadd_pd(a, b, c);
  }
  static Vec fmadd(Vec a, Vec b, Vec c) noexcept {
    return _mm512_fmadd_pd(a, b, c);
  }
  static Vec mul(Vec a, Vec b) noexcept { return _mm512_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) noexcept { return _mm512_div_pd(a, b); }

  static Sq4 zero_sq() noexcept { return _mm256_setzero_pd(); }
  static void add_sq(Vec res, Sq4& acc) noexcept {
    const __m256d lo = _mm512_maskz_extractf64x4_pd(0xF, res, 0);
    const __m256d hi = _mm512_maskz_extractf64x4_pd(0xF, res, 1);
    acc = _mm256_fmadd_pd(lo, lo, acc);
    acc = _mm256_fmadd_pd(hi, hi, acc);
  }
  static void spill_sq(Sq4 acc, value_t* out) noexcept {
    _mm256_storeu_pd(out, acc);
  }
};

}  // namespace

void simd8_update_block(const SimdBlockView& blk, const value_t* halo_values,
                        const value_t* rhs, value_t* x, value_t omega,
                        index_t sweeps, const std::uint8_t* mask,
                        value_t* residual_sq) noexcept {
  update_block<Avx512>(blk, halo_values, rhs, x, omega, sweeps, mask,
                       residual_sq);
}

#else  // !BARS_BACKEND_HAS_AVX512

void simd8_update_block(const SimdBlockView&, const value_t*, const value_t*,
                        value_t*, value_t, index_t, const std::uint8_t*,
                        value_t*) noexcept {
  // Unreachable: SimdBlockSweepKernel picks 8 lanes only when
  // simd8_compiled() is true.
}

#endif

}  // namespace bars::backend::detail
