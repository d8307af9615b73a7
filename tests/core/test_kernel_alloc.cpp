/// Allocation audit for the hot path: no kernel's update() may touch
/// the heap — BlockJacobiKernel, every registered backend, and the SIMD
/// kernel at each lane count this machine runs. All sweep scratch is
/// sized at construction.
/// This file overrides the global allocation functions (binary-wide,
/// hence its own test executable) with a toggleable counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "backend/block_jacobi_kernel.hpp"
#include "backend/registry.hpp"
#include "backend/simd_kernel.hpp"
#include "gpusim/block_kernel.hpp"
#include "matrices/generators.hpp"
#include "sparse/partition.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bars {
namespace {

class AllocGuard {
 public:
  AllocGuard() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocGuard() { g_counting.store(false, std::memory_order_relaxed); }
  [[nodiscard]] std::size_t count() const {
    return g_allocs.load(std::memory_order_relaxed);
  }
};

struct Fixture {
  Csr a;
  Vector b;
  RowPartition part;
  Fixture()
      : a(fv_like(16, 0.6)),
        b(static_cast<std::size_t>(a.rows()), 1.0),
        part(RowPartition::uniform(a.rows(), 32)) {}
};

void exercise(const backend::BlockSweepKernel& kernel, Vector& x) {
  Vector halo_vals;
  // Pre-size the snapshot buffer outside the audited region (the
  // executor reuses its per-block snapshot vectors the same way).
  std::size_t max_halo = 0;
  for (index_t blk = 0; blk < kernel.num_blocks(); ++blk) {
    max_halo = std::max(max_halo, kernel.halo(blk).size());
  }
  halo_vals.reserve(max_halo);

  value_t residual_sq = 0.0;
  AllocGuard guard;
  for (int pass = 0; pass < 3; ++pass) {
    for (index_t blk = 0; blk < kernel.num_blocks(); ++blk) {
      const auto halo = kernel.halo(blk);
      halo_vals.resize(halo.size());
      for (std::size_t i = 0; i < halo.size(); ++i) halo_vals[i] = x[halo[i]];
      gpusim::ExecContext ctx;
      // The middle pass also reports the block residual.
      if (pass == 1) ctx.residual_sq = &residual_sq;
      kernel.update(blk, halo_vals, x, ctx);
    }
  }
  EXPECT_EQ(guard.count(), 0u)
      << kernel.backend_name() << " update allocated on the hot path";
}

TEST(KernelAllocAudit, JacobiSingleSweepIsAllocationFree) {
  Fixture f;
  BlockJacobiKernel kernel(f.a, f.b, f.part, 1);
  Vector x(f.b.size(), 0.0);
  exercise(kernel, x);
}

TEST(KernelAllocAudit, JacobiMultiSweepIsAllocationFree) {
  Fixture f;
  BlockJacobiKernel kernel(f.a, f.b, f.part, 5);
  Vector x(f.b.size(), 0.0);
  exercise(kernel, x);
}

TEST(KernelAllocAudit, GaussSeidelSweepsAreAllocationFree) {
  Fixture f;
  BlockJacobiKernel kernel(f.a, f.b, f.part, 3, LocalSweep::kGaussSeidel);
  Vector x(f.b.size(), 0.0);
  exercise(kernel, x);
}

TEST(KernelAllocAudit, OverlappingKernelIsAllocationFree) {
  Fixture f;
  BlockJacobiKernel kernel(f.a, f.b, f.part, 2, LocalSweep::kJacobi, 1.0,
                           /*overlap=*/4);
  Vector x(f.b.size(), 0.0);
  exercise(kernel, x);
}

TEST(KernelAllocAudit, EveryBackendIsAllocationFree) {
  Fixture f;
  for (const std::string& name : backend::backend_names()) {
    if (!backend::find_backend(name).available()) continue;
    for (const index_t k : {1, 5}) {
      const auto kernel = backend::build_kernel(name, f.a, f.b, f.part, {k});
      Vector x(f.b.size(), 0.0);
      exercise(*kernel, x);
    }
  }
}

TEST(KernelAllocAudit, SimdIsAllocationFreeAtEveryLaneCount) {
  Fixture f;
  // Block size 13 leaves a scalar tail group at both widths.
  const RowPartition ragged = RowPartition::uniform(f.a.rows(), 13);
  for (const index_t lanes : {4, 8}) {
    if (!backend::detail::simd_lanes_available(lanes)) continue;
    for (const RowPartition& part : {f.part, ragged}) {
      backend::SimdBlockSweepKernel kernel(f.a, f.b, part, {3},
                                           backend::detail::SimdLanes{lanes});
      ASSERT_EQ(kernel.vector_width(), lanes);
      Vector x(f.b.size(), 0.0);
      exercise(kernel, x);
    }
  }
}

}  // namespace
}  // namespace bars
