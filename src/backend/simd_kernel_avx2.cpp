/// \file simd_kernel_avx2.cpp
/// The 4-lane block sweep (one __m256d per group of four rows). Built
/// with -mavx2 -mfma (per-file, see src/backend/CMakeLists.txt) and
/// reached only after the runtime cpu probe in simd_kernel.cpp, so the
/// rest of the library never emits AVX2 instructions. When the compiler
/// cannot target AVX2 the file degrades to a stub and simd4_compiled()
/// reports false.

#include "backend/simd_sweep.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define BARS_BACKEND_HAS_AVX2 1
#include <immintrin.h>
#else
#define BARS_BACKEND_HAS_AVX2 0
#endif

namespace bars::backend::detail {

bool simd4_compiled() noexcept { return BARS_BACKEND_HAS_AVX2 != 0; }

#if BARS_BACKEND_HAS_AVX2

namespace {

/// sweep_block's ISA wrapper: four doubles per vector.
struct Avx2 {
  using Vec = __m256d;
  using Sq4 = __m256d;
  static constexpr index_t kLanes = 4;

  static Vec load(const value_t* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(value_t* p, Vec v) noexcept { _mm256_storeu_pd(p, v); }
  static Vec set1(value_t v) noexcept { return _mm256_set1_pd(v); }
  /// The masked form with a zeroed source: the unmasked intrinsic's
  /// undefined source trips GCC's -Wmaybe-uninitialized.
  static Vec gather(const value_t* base, const std::int32_t* idx) noexcept {
    const Vec zero = _mm256_setzero_pd();
    return _mm256_mask_i32gather_pd(
        zero, base, _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)),
        _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ), 8);
  }
  static Vec fnmadd(Vec a, Vec b, Vec c) noexcept {
    return _mm256_fnmadd_pd(a, b, c);
  }
  static Vec fmadd(Vec a, Vec b, Vec c) noexcept {
    return _mm256_fmadd_pd(a, b, c);
  }
  static Vec mul(Vec a, Vec b) noexcept { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) noexcept { return _mm256_div_pd(a, b); }

  static Sq4 zero_sq() noexcept { return _mm256_setzero_pd(); }
  static void add_sq(Vec res, Sq4& acc) noexcept {
    acc = _mm256_fmadd_pd(res, res, acc);
  }
  static void spill_sq(Sq4 acc, value_t* out) noexcept {
    _mm256_storeu_pd(out, acc);
  }
};

}  // namespace

void simd4_update_block(const SimdBlockView& blk, const value_t* halo_values,
                        const value_t* rhs, value_t* x, value_t omega,
                        index_t sweeps, const std::uint8_t* mask,
                        value_t* residual_sq) noexcept {
  update_block<Avx2>(blk, halo_values, rhs, x, omega, sweeps, mask,
                     residual_sq);
}

#else  // !BARS_BACKEND_HAS_AVX2

void simd4_update_block(const SimdBlockView&, const value_t*, const value_t*,
                        value_t*, value_t, index_t, const std::uint8_t*,
                        value_t*) noexcept {
  // Unreachable: SimdBlockSweepKernel's constructor throws
  // backend_unsupported when simd4_compiled() is false.
}

#endif

}  // namespace bars::backend::detail
