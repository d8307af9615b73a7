/// Backend seam contract tests: registry round-trips, the degradation
/// policy (unavailable backend / unsupported config -> scalar, counted
/// on the caller's metrics), lifecycle fail-fast, and the cross-backend
/// kernel guarantees the solvers rely on (parallel-commit bit-identity,
/// scalar-vs-simd elementwise agreement).

#include "backend/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/block_jacobi_kernel.hpp"
#include "backend/simd_kernel.hpp"
#include "core/block_async.hpp"
#include "matrices/generators.hpp"
#include "resilience/scenario.hpp"
#include "sparse/partition.hpp"
#include "sparse/reorder.hpp"
#include "telemetry/metrics.hpp"

namespace bars::backend {
namespace {

/// Counter value as an integer (counters only ever increment by 1).
long long count(telemetry::MetricsRegistry& m, const std::string& name) {
  return static_cast<long long>(m.counter(name).value());
}

/// A provider that exists in the registry but can never run here —
/// the shape of a CUDA backend on a machine without a GPU.
class UnavailableBackend final : public KernelBackend {
 public:
  explicit UnavailableBackend(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] BackendCaps caps() const noexcept override { return {}; }
  [[nodiscard]] bool available() const noexcept override { return false; }
  [[nodiscard]] std::unique_ptr<BlockSweepKernel> make_kernel(
      const Csr&, const Vector&, RowPartition,
      const KernelConfig&) const override {
    throw backend_unsupported(name_ + " cannot build kernels");
  }

 private:
  std::string name_;
};

// ------------------------------------------------------------ registry

TEST(BackendRegistry, RoundTripAllProviders) {
  const std::vector<std::string> names = backend_names();
  ASSERT_FALSE(names.empty());
  EXPECT_NE(std::find(names.begin(), names.end(), "scalar"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "simd"), names.end());
  for (const std::string& n : names) {
    const KernelBackend& p = find_backend(n);
    EXPECT_EQ(p.name(), n);
    EXPECT_GE(p.caps().vector_width, 1) << n;
  }
  // The scalar reference backend is available everywhere, by contract.
  EXPECT_TRUE(find_backend("scalar").available());
  EXPECT_EQ(find_backend("scalar").caps().vector_width, 1);
  // simd reports the width it sweeps with here: 8 with AVX-512F/VL.
  const index_t lanes = detail::simd_native_lanes();
  EXPECT_EQ(find_backend("simd").caps().vector_width, lanes);
  EXPECT_EQ(lanes, detail::simd_lanes_available(8) ? 8 : 4);
}

TEST(BackendRegistry, UnknownNameThrowsListingValidOnes) {
  try {
    (void)find_backend("cuda");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cuda"), std::string::npos);
    EXPECT_NE(msg.find("scalar"), std::string::npos);
    EXPECT_NE(msg.find("simd"), std::string::npos);
    EXPECT_NE(msg.find("auto"), std::string::npos);
  }
}

TEST(BackendRegistry, AutoResolvesToAnAvailableProvider) {
  const KernelBackend& chosen = find_backend("auto");
  EXPECT_TRUE(chosen.available());
  // "" is the same selection alias as "auto".
  EXPECT_EQ(&find_backend(""), &chosen);
  if (simd_available()) {
    EXPECT_EQ(chosen.name(), "simd");
  } else {
    EXPECT_EQ(chosen.name(), "scalar");
  }
}

TEST(BackendRegistry, RegisterRejectsNullReservedAndDuplicate) {
  EXPECT_THROW(register_backend(nullptr), std::invalid_argument);
  EXPECT_THROW(register_backend(std::make_unique<UnavailableBackend>("")),
               std::invalid_argument);
  EXPECT_THROW(register_backend(std::make_unique<UnavailableBackend>("auto")),
               std::invalid_argument);
  EXPECT_THROW(
      register_backend(std::make_unique<UnavailableBackend>("scalar")),
      std::invalid_argument);
}

// -------------------------------------------------- degradation policy

TEST(BackendRegistry, UnavailableBackendDegradesToScalarWithTelemetry) {
  register_backend(std::make_unique<UnavailableBackend>("test-gpu"));
  // Registered but not runnable: selection degrades to scalar and the
  // caller's metrics record both the fallback and what actually ran.
  telemetry::MetricsRegistry m;
  const KernelBackend& used = select_backend("test-gpu", &m);
  EXPECT_EQ(used.name(), "scalar");
  EXPECT_EQ(count(m, "backend_used_scalar"), 1);
  EXPECT_EQ(count(m, "backend_fallbacks"), 1);

  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto kernel = build_kernel(
      "test-gpu", a, b, RowPartition::uniform(a.rows(), 8), {}, &m);
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->backend_name(), "scalar");
  EXPECT_EQ(count(m, "backend_used_scalar"), 2);
  EXPECT_EQ(count(m, "backend_fallbacks"), 2);
}

TEST(BackendRegistry, UnsupportedConfigDegradesToScalar) {
  // "simd" cannot express Gauss-Seidel sweeps; whether it is available
  // on this machine or not, build_kernel must degrade to scalar and
  // count a fallback — never throw backend_unsupported at the caller.
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  KernelConfig config;
  config.local_iters = 2;
  config.sweep = LocalSweep::kGaussSeidel;
  telemetry::MetricsRegistry m;
  const auto kernel = build_kernel(
      "simd", a, b, RowPartition::uniform(a.rows(), 8), config, &m);
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->backend_name(), "scalar");
  EXPECT_EQ(kernel->local_iters(), 2);
  EXPECT_GE(count(m, "backend_fallbacks"), 1);
  EXPECT_GE(count(m, "backend_used_scalar"), 1);
}

TEST(BackendRegistry, ScalarRequestNeverFallsBack) {
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  telemetry::MetricsRegistry m;
  const auto kernel = build_kernel(
      "scalar", a, b, RowPartition::uniform(a.rows(), 8), {}, &m);
  EXPECT_EQ(kernel->backend_name(), "scalar");
  EXPECT_EQ(count(m, "backend_used_scalar"), 1);
  EXPECT_EQ(count(m, "backend_fallbacks"), 0);
}

TEST(BackendRegistry, InputErrorsPropagateNotDegraded) {
  // A malformed *input* (zero diagonal) is the caller's bug on every
  // backend: it must surface as std::invalid_argument, not silently
  // retry on scalar (which would fail identically anyway).
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  const Vector b(2, 1.0);
  for (const std::string& name : backend_names()) {
    if (!find_backend(name).available()) continue;
    EXPECT_THROW((void)build_kernel(name, bad, b,
                                    RowPartition::uniform(bad.rows(), 2), {}),
                 std::invalid_argument)
        << name;
  }
}

// ------------------------------------------------------------ lifecycle

TEST(BackendLifecycle, InitFailsFastWhenUnavailable) {
  const UnavailableBackend gpu("test-lifecycle");
  EXPECT_THROW(gpu.init(), backend_unsupported);
  // finalize() must be safe without init() and when called repeatedly.
  EXPECT_NO_THROW(gpu.finalize());
  EXPECT_NO_THROW(gpu.finalize());
  EXPECT_NO_THROW(find_backend("scalar").init());
  EXPECT_NO_THROW(find_backend("scalar").finalize());
}

// ------------------------------------------- cross-backend kernel laws

TEST(BackendKernel, EveryAvailableBackendSolves) {
  const Csr a = fv_like(10, 0.6);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.01 * double(i);
  BlockAsyncOptions o;
  o.block_size = 25;
  o.local_iters = 3;
  o.solve.max_iters = 3000;
  o.solve.tol = 1e-11;
  for (const std::string& name : backend_names()) {
    if (!find_backend(name).available()) continue;
    const auto kernel = build_kernel(
        name, a, b, RowPartition::uniform(a.rows(), o.block_size),
        {o.local_iters});
    EXPECT_EQ(kernel->backend_name(), name);
    EXPECT_EQ(kernel->local_iters(), o.local_iters);
    EXPECT_EQ(kernel->overlap(), 0);
    const BlockAsyncResult r =
        block_async_solve_with_kernel(a, b, *kernel, o);
    EXPECT_TRUE(r.solve.ok()) << name;
    EXPECT_LE(relative_residual(a, b, r.solve.x), 1e-11) << name;
  }
}

TEST(BackendKernel, ParallelCommitBitIdenticalPerBackend) {
  // Re-prove the parallel-commit contract *through the seam*: every
  // backend whose caps declare parallel_commit_safe must produce
  // bitwise-identical histories with and without the worker pool.
  const Csr a = trefethen(640);
  const Vector b(640, 1.0);
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 2;
  o.solve.max_iters = 30;
  o.solve.tol = 0.0;
  o.solve.record_history = true;
  for (const std::string& name : backend_names()) {
    const KernelBackend& p = find_backend(name);
    if (!p.available() || !p.caps().parallel_commit_safe) continue;
    const auto kernel = build_kernel(
        name, a, b, RowPartition::uniform(a.rows(), o.block_size),
        {o.local_iters});
    ASSERT_TRUE(kernel->parallel_commit_safe()) << name;
    o.num_workers = 0;
    const BlockAsyncResult serial =
        block_async_solve_with_kernel(a, b, *kernel, o);
    o.num_workers = 4;
    const BlockAsyncResult parallel =
        block_async_solve_with_kernel(a, b, *kernel, o);
    EXPECT_EQ(serial.solve.x, parallel.solve.x) << name;  // bitwise
    EXPECT_EQ(serial.solve.residual_history, parallel.solve.residual_history)
        << name;
    EXPECT_EQ(serial.block_executions, parallel.block_executions) << name;
  }
}

TEST(BackendKernel, ScalarAndSimdAgreeWithinDocumentedTolerance) {
  if (!simd_available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this machine/build";
  }
  // docs/BACKENDS.md: identical accumulation order, FMA contraction is
  // the only rounding difference -> elementwise relative agreement to
  // 1e-12 on the paper matrices (far tighter in practice).
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 3;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-10;
  for (const Csr& a : {trefethen(500), fv_like(22, 0.4)}) {
    const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
    const RowPartition part = RowPartition::uniform(a.rows(), o.block_size);
    const auto ks = build_kernel("scalar", a, b, part, {o.local_iters});
    const auto kv = build_kernel("simd", a, b, part, {o.local_iters});
    const BlockAsyncResult rs = block_async_solve_with_kernel(a, b, *ks, o);
    const BlockAsyncResult rv = block_async_solve_with_kernel(a, b, *kv, o);
    ASSERT_TRUE(rs.solve.ok());
    ASSERT_TRUE(rv.solve.ok());
    for (std::size_t i = 0; i < rs.solve.x.size(); ++i) {
      const value_t scale = std::max(std::abs(rs.solve.x[i]), value_t(1));
      EXPECT_NEAR(rs.solve.x[i], rv.solve.x[i], 1e-12 * scale) << "i=" << i;
    }
  }
}

TEST(BackendKernel, SimdRejectsWhatItCannotExpress) {
  if (!simd_available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this machine/build";
  }
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const RowPartition part = RowPartition::uniform(a.rows(), 8);
  KernelConfig gs;
  gs.sweep = LocalSweep::kGaussSeidel;
  EXPECT_THROW(SimdBlockSweepKernel(a, b, part, gs), backend_unsupported);
  KernelConfig overlap;
  overlap.overlap = 2;
  EXPECT_THROW(SimdBlockSweepKernel(a, b, part, overlap),
               backend_unsupported);
  KernelConfig bad_iters;
  bad_iters.local_iters = 0;
  EXPECT_THROW(SimdBlockSweepKernel(a, b, part, bad_iters),
               std::invalid_argument);
  EXPECT_THROW(SimdBlockSweepKernel(a, b, part, {}, detail::SimdLanes{3}),
               std::invalid_argument);
  if (!detail::simd_lanes_available(8)) {
    EXPECT_THROW(SimdBlockSweepKernel(a, b, part, {}, detail::SimdLanes{8}),
                 backend_unsupported);
  }
  EXPECT_EQ(SimdBlockSweepKernel(a, b, part, {}).vector_width(),
            detail::simd_native_lanes());
}

TEST(BackendKernel, RhsAndPerBlockItersRoundTripPerBackend) {
  const Csr a = fv_like(8, 0.5);
  const Vector b1(static_cast<std::size_t>(a.rows()), 1.0);
  const Vector b2(static_cast<std::size_t>(a.rows()), 2.0);
  for (const std::string& name : backend_names()) {
    if (!find_backend(name).available()) continue;
    const auto kernel = build_kernel(
        name, a, b1, RowPartition::uniform(a.rows(), 16), {/*local_iters=*/3});
    EXPECT_EQ(&kernel->rhs(), &b1) << name;
    kernel->set_rhs(b2);
    EXPECT_EQ(&kernel->rhs(), &b2) << name;
    EXPECT_THROW(kernel->set_rhs(Vector(3, 0.0)), std::invalid_argument);

    // Adaptive async-(k): per-block sweep counts override the uniform k.
    std::vector<index_t> per_block(
        static_cast<std::size_t>(kernel->num_blocks()));
    for (std::size_t i = 0; i < per_block.size(); ++i) {
      per_block[i] = 1 + static_cast<index_t>(i % 3);
    }
    kernel->set_per_block_iters(per_block);
    for (index_t blk = 0; blk < kernel->num_blocks(); ++blk) {
      EXPECT_EQ(kernel->block_local_iters(blk),
                per_block[static_cast<std::size_t>(blk)])
          << name;
    }
    EXPECT_THROW(kernel->set_per_block_iters({1}), std::invalid_argument);
  }
}

TEST(BackendKernel, ReportsOwnedRowResidualPerBackend) {
  // ExecContext::residual_sq: the block's sum of squared residuals over
  // its owned rows, for the state it read (halo + own rows before the
  // update). Block size 13 leaves a SIMD tail group; overlap 3 checks
  // that working-range rows outside the owned range are not counted.
  const Csr a = fv_like(9, 0.5);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  Vector b(n);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 + 0.25 * static_cast<value_t>(i % 5);
    x[i] = 0.1 * static_cast<value_t>(i % 7) - 0.3;
  }
  Vector r(n);
  a.residual(b, x, r);

  std::vector<std::unique_ptr<BlockSweepKernel>> kernels;
  for (const std::string& name : backend_names()) {
    if (!find_backend(name).available()) continue;
    for (const index_t k : {1, 3}) {
      kernels.push_back(
          build_kernel(name, a, b, RowPartition::uniform(a.rows(), 13), {k}));
    }
  }
  kernels.push_back(build_kernel("scalar", a, b,
                                 RowPartition::uniform(a.rows(), 13),
                                 {2, LocalSweep::kJacobi, 1.0, 3}));
  for (const auto& kernel : kernels) {
    for (index_t blk = 0; blk < kernel->num_blocks(); ++blk) {
      const auto halo = kernel->halo(blk);
      Vector hv(halo.size());
      for (std::size_t i = 0; i < halo.size(); ++i) hv[i] = x[halo[i]];
      const auto [lo, hi] = kernel->rows(blk);
      value_t expected = 0.0;
      for (index_t i = lo; i < hi; ++i) expected += r[i] * r[i];
      Vector xu = x;
      value_t reported = -1.0;
      gpusim::ExecContext ctx;
      ctx.residual_sq = &reported;
      kernel->update(blk, hv, xu, ctx);
      EXPECT_NEAR(reported, expected, 1e-12 * expected)
          << kernel->backend_name() << " block " << blk << " k "
          << kernel->local_iters() << " overlap " << kernel->overlap();
    }
  }
}

// ------------------------------------------------- simd lane widths

/// Bit patterns, so the comparison tells -0.0 from 0.0 and NaN from NaN.
std::vector<std::uint64_t> bits(const std::vector<value_t>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const value_t d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

/// Blocks of 1..23 rows in turn: every m % 8 from 0 to 7, blocks under
/// one vector group, and ragged last groups at both widths.
RowPartition cycling_blocks(index_t n) {
  std::vector<index_t> bounds{0};
  for (index_t size = 1; bounds.back() < n; size = size % 23 + 1) {
    bounds.push_back(std::min(n, bounds.back() + size));
  }
  return RowPartition::from_boundaries(std::move(bounds));
}

TEST(SimdLanes, FourAndEightLanesAgreeBitForBit) {
  if (!detail::simd_lanes_available(8)) {
    GTEST_SKIP() << "AVX-512F/VL not available on this machine/build";
  }
  const std::vector<std::pair<std::string, Csr>> matrices = {
      {"fv_like", fv_like(24, 0.5)},
      {"trefethen", trefethen(600)},
      {"chem97ztz_like", chem97ztz_like(600, 0.7)},
      {"random_spd", random_spd(600, 6, 1.5, 7)}};
  for (const auto& [name, a] : matrices) {
    Vector b(static_cast<std::size_t>(a.rows()));
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = 1.0 + 0.01 * static_cast<value_t>(i % 13);
    }
    for (const RowPartition& part :
         {cycling_blocks(a.rows()), RowPartition::uniform(a.rows(), 64)}) {
      for (const index_t k : {1, 5}) {
        SimdBlockSweepKernel four(a, b, part, {k}, detail::SimdLanes{4});
        SimdBlockSweepKernel eight(a, b, part, {k},
                                         detail::SimdLanes{8});
        ASSERT_EQ(four.vector_width(), 4);
        ASSERT_EQ(eight.vector_width(), 8);
        // Three runs per kernel pair: with the residual history, on
        // the worker pool, and under a component fault mask (a fault
        // timeline forces the serial event loop, hence separate runs).
        struct Run {
          const char* what;
          bool history;
          index_t workers;
          bool fault;
        };
        for (const Run& run : {Run{"history", true, 0, false},
                               Run{"workers", false, 4, false},
                               Run{"fault", false, 0, true}}) {
          BlockAsyncOptions o;
          o.local_iters = k;
          o.solve.max_iters = 150;
          o.solve.tol = 1e-9;
          o.solve.record_history = run.history;
          o.num_workers = run.workers;
          if (run.fault) {
            o.scenario = resilience::FaultScenario().fail_components(
                5, 0.25, 10);
          }
          const BlockAsyncResult r4 =
              block_async_solve_with_kernel(a, b, four, o);
          const BlockAsyncResult r8 =
              block_async_solve_with_kernel(a, b, eight, o);
          const std::string what = name + " blocks " +
                                   std::to_string(part.num_blocks()) +
                                   " k " + std::to_string(k) + " " +
                                   run.what;
          EXPECT_EQ(bits(r4.solve.x), bits(r8.solve.x)) << what;
          EXPECT_EQ(r4.solve.iterations, r8.solve.iterations) << what;
          EXPECT_EQ(r4.solve.status, r8.solve.status) << what;
          EXPECT_EQ(bits(r4.solve.residual_history),
                    bits(r8.solve.residual_history))
              << what;
          EXPECT_EQ(r4.block_executions, r8.block_executions) << what;
          EXPECT_EQ(r4.solve.residual_history.empty(), !run.history)
              << what;
        }

        // The per-block residual report, block by block.
        Vector x(b.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] = 0.1 * static_cast<value_t>(i % 7) - 0.3;
        }
        for (index_t blk = 0; blk < four.num_blocks(); ++blk) {
          const auto halo = four.halo(blk);
          Vector hv(halo.size());
          for (std::size_t i = 0; i < halo.size(); ++i) hv[i] = x[halo[i]];
          Vector x4 = x;
          Vector x8 = x;
          std::vector<value_t> reported(2, -1.0);
          gpusim::ExecContext ctx;
          ctx.residual_sq = &reported[0];
          four.update(blk, hv, x4, ctx);
          ctx.residual_sq = &reported[1];
          eight.update(blk, hv, x8, ctx);
          EXPECT_EQ(bits(x4), bits(x8)) << name << " block " << blk;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(reported[0]),
                    std::bit_cast<std::uint64_t>(reported[1]))
              << name << " block " << blk;
        }
      }
    }
  }
}

/// Share of the full groups' non-empty splits flagged contiguous.
double contiguous_share(const SimdBlockSweepKernel& kernel) {
  index_t splits = 0;
  index_t flagged = 0;
  for (index_t blk = 0; blk < kernel.num_blocks(); ++blk) {
    const detail::SimdBlockLayout& l = kernel.layout(blk);
    for (index_t g = 0; g < l.full_groups; ++g) {
      const std::size_t gi = static_cast<std::size_t>(g);
      if (l.lgroup_ptr[gi + 1] > l.lgroup_ptr[gi]) {
        ++splits;
        flagged += l.lcontig[gi];
      }
      if (l.ggroup_ptr[gi + 1] > l.ggroup_ptr[gi]) {
        ++splits;
        flagged += l.gcontig[gi];
      }
    }
  }
  return splits == 0 ? 0.0
                     : static_cast<double>(flagged) /
                           static_cast<double>(splits);
}

TEST(SimdLanes, StencilGroupsLoadContiguouslyShuffledOnesGather) {
  if (!simd_available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this machine/build";
  }
  const Csr a = fv_like(200, 0.5);
  Permutation p = identity_permutation(a.rows());
  std::mt19937_64 rng(11);
  std::shuffle(p.begin(), p.end(), rng);
  const Csr shuffled = permute_symmetric(a, p);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const RowPartition part = RowPartition::uniform(a.rows(), 448);
  for (const index_t lanes : {4, 8}) {
    if (!detail::simd_lanes_available(lanes)) continue;
    const SimdBlockSweepKernel grid(a, b, part, {}, detail::SimdLanes{lanes});
    const SimdBlockSweepKernel scattered(shuffled, b, part, {},
                                         detail::SimdLanes{lanes});
    EXPECT_GE(contiguous_share(grid), 0.9) << lanes << " lanes";
    EXPECT_EQ(contiguous_share(scattered), 0.0) << lanes << " lanes";
  }
}

}  // namespace
}  // namespace bars::backend
