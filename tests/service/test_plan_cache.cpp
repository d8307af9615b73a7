#include "service/plan_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "matrices/generators.hpp"
#include "service/fingerprint.hpp"

namespace bars::service {
namespace {

TEST(Fingerprint, DeterministicAndValueSensitive) {
  const Csr a = fv_like(8, 0.5);
  const Csr b = fv_like(8, 0.5);
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(b));
  const Csr c = fv_like(8, 0.6);   // same structure, different values
  const Csr d = fv_like(9, 0.5);   // different structure
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(c));
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(d));
}

TEST(PlanCache, ZeroCapacityThrows) {
  EXPECT_THROW(PlanCache(0), std::invalid_argument);
}

TEST(PlanCache, MissBuildsThenHits) {
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  bool hit = true;
  const auto p1 = cache.acquire(a, PlanConfig{}, &hit);
  ASSERT_NE(p1, nullptr);
  EXPECT_FALSE(hit);
  ASSERT_NE(p1->kernel, nullptr);
  EXPECT_EQ(p1->matrix.rows(), a.rows());
  EXPECT_EQ(p1->fingerprint, matrix_fingerprint(a));
  EXPECT_EQ(p1->seed_rhs.size(), static_cast<std::size_t>(a.rows()));

  const auto p2 = cache.acquire(a, PlanConfig{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.capacity, 4u);
}

TEST(PlanCache, PrecomputedFingerprintMatchesHashingAcquire) {
  // The overload taking the caller's fingerprint serves the same plans
  // and counts the same hits and misses as the hashing form.
  const Csr a = fv_like(6, 0.5);
  const Csr b = fv_like(7, 0.5);
  PlanCache hashing(4);
  PlanCache precomputed(4);
  std::vector<bool> hits_hashing;
  std::vector<bool> hits_precomputed;
  for (const Csr* m : {&a, &b, &a, &a, &b}) {
    bool hit = false;
    const auto p1 = hashing.acquire(*m, PlanConfig{}, &hit);
    hits_hashing.push_back(hit);
    const auto p2 = precomputed.acquire(*m, matrix_fingerprint(*m),
                                        PlanConfig{}, &hit);
    hits_precomputed.push_back(hit);
    EXPECT_EQ(p1->fingerprint, p2->fingerprint);
    EXPECT_EQ(p2->fingerprint, matrix_fingerprint(*m));
    EXPECT_EQ(p1->matrix.rows(), p2->matrix.rows());
  }
  EXPECT_EQ(hits_hashing, hits_precomputed);
  const PlanCacheStats s1 = hashing.stats();
  const PlanCacheStats s2 = precomputed.stats();
  EXPECT_EQ(s1.hits, s2.hits);
  EXPECT_EQ(s1.misses, s2.misses);
  EXPECT_EQ(s1.size, s2.size);
  EXPECT_EQ(s1.evictions, s2.evictions);
  // Within one cache both forms hit the same entry.
  EXPECT_EQ(hashing.acquire(a, matrix_fingerprint(a), PlanConfig{}).get(),
            hashing.acquire(a, PlanConfig{}).get());
}

TEST(PlanCache, DistinctConfigsGetDistinctPlans) {
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  const auto p1 = cache.acquire(a, PlanConfig{.block_size = 8, .local_iters = 2});
  const auto p2 = cache.acquire(a, PlanConfig{.block_size = 16, .local_iters = 2});
  EXPECT_NE(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCache, BackendIsPartOfTheKey) {
  // Backends differ in memory layout and FP rounding, so a plan built
  // for one backend must never be served to a request asking for
  // another: same matrix + same partition config but different backend
  // names are two misses and two resident plans.
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  bool hit = true;
  const auto scalar =
      cache.acquire(a, PlanConfig{.backend = "scalar"}, &hit);
  EXPECT_FALSE(hit);
  const auto simd = cache.acquire(a, PlanConfig{.backend = "simd"}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(scalar.get(), simd.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().size, 2u);

  // Both kernels built (an unavailable simd degrades to a scalar
  // kernel, but the plan still lives under the requested key).
  ASSERT_NE(scalar->kernel, nullptr);
  ASSERT_NE(simd->kernel, nullptr);
  EXPECT_EQ(scalar->kernel->backend_name(), "scalar");

  // Each key hits its own entry on re-acquire and peeks distinctly.
  const auto again = cache.acquire(a, PlanConfig{.backend = "simd"}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), simd.get());
  const std::uint64_t fp = matrix_fingerprint(a);
  EXPECT_EQ(cache.peek(fp, PlanConfig{.backend = "scalar"}).get(),
            scalar.get());
  EXPECT_EQ(cache.peek(fp, PlanConfig{.backend = "simd"}).get(), simd.get());
}

TEST(PlanCache, UnknownBackendIsANegativeEntry) {
  // A typo'd backend name fails the build (std::invalid_argument from
  // the backend registry) and is cached as a negative entry, so repeat
  // offenders fail fast like any other construction failure.
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  bool hit = true;
  const auto p1 = cache.acquire(a, PlanConfig{.backend = "cuda"}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_NE(p1->kernel_error.find("cuda"), std::string::npos);
  const auto p2 = cache.acquire(a, PlanConfig{.backend = "cuda"}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());
  // The well-formed config on the same matrix is unaffected.
  const auto good = cache.acquire(a, PlanConfig{}, &hit);
  EXPECT_NE(good->kernel, nullptr);
}

TEST(PlanCache, LruEvictionUnderChurn) {
  PlanCache cache(2);
  const Csr a = fv_like(4, 0.5);
  const Csr b = fv_like(5, 0.5);
  const Csr c = fv_like(6, 0.5);
  bool hit = false;
  (void)cache.acquire(a, PlanConfig{}, &hit);
  (void)cache.acquire(b, PlanConfig{}, &hit);
  (void)cache.acquire(c, PlanConfig{}, &hit);  // evicts a (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);

  (void)cache.acquire(b, PlanConfig{}, &hit);  // still resident
  EXPECT_TRUE(hit);
  (void)cache.acquire(a, PlanConfig{}, &hit);  // evicted above -> rebuild
  EXPECT_FALSE(hit);
  // b was touched after c, so rebuilding a evicted c.
  EXPECT_EQ(cache.peek(matrix_fingerprint(c), PlanConfig{}), nullptr);
  EXPECT_NE(cache.peek(matrix_fingerprint(b), PlanConfig{}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PlanCache, PeekDoesNotRefreshLru) {
  PlanCache cache(2);
  const Csr a = fv_like(4, 0.5);
  const Csr b = fv_like(5, 0.5);
  const Csr c = fv_like(6, 0.5);
  (void)cache.acquire(a, PlanConfig{});
  (void)cache.acquire(b, PlanConfig{});
  // Peeking a must not promote it: the next insertion still evicts a.
  EXPECT_NE(cache.peek(matrix_fingerprint(a), PlanConfig{}), nullptr);
  (void)cache.acquire(c, PlanConfig{});
  EXPECT_EQ(cache.peek(matrix_fingerprint(a), PlanConfig{}), nullptr);
  EXPECT_NE(cache.peek(matrix_fingerprint(b), PlanConfig{}), nullptr);
}

TEST(PlanCache, EvictedPlanStaysValidWhileHeld) {
  PlanCache cache(1);
  const Csr a = fv_like(6, 0.5);
  const auto held = cache.acquire(a, PlanConfig{});
  ASSERT_NE(held->kernel, nullptr);
  // Churn far past capacity while holding the original plan.
  for (int n = 7; n < 12; ++n) {
    (void)cache.acquire(fv_like(n, 0.5), PlanConfig{});
  }
  EXPECT_GE(cache.stats().evictions, 4u);
  // The held plan is untouched by eviction: kernel still usable.
  EXPECT_EQ(held->kernel->num_rows(), a.rows());
  EXPECT_EQ(held->matrix.rows(), a.rows());
}

TEST(PlanCache, KernelFailureIsCachedWithReason) {
  // Off-diagonal-only matrix: BlockJacobiKernel construction fails
  // (zero diagonal), and the failure itself is cached.
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  PlanCache cache(2);
  bool hit = true;
  const auto p1 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_FALSE(p1->kernel_error.empty());

  const auto p2 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_TRUE(hit);  // repeat offenders fail fast, no rebuild attempt
  EXPECT_EQ(p1.get(), p2.get());
}

TEST(PlanCache, NegativeEntryExpiresAfterTtl) {
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  PlanCacheOptions opts;
  opts.capacity = 2;
  opts.negative_ttl = std::chrono::milliseconds(1);
  PlanCache cache(opts);

  bool hit = true;
  const auto p1 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_EQ(cache.stats().negative_entries, 1u);

  // Within the TTL a cached failure is authoritative; past it the next
  // acquire rebuilds from scratch and counts as a miss, so a transient
  // construction failure can never poison the fingerprint forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(cache.peek(matrix_fingerprint(bad), PlanConfig{}), nullptr);
  const auto p2 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(p1.get(), p2.get());  // rebuilt (still fails: bad matrix)
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.negative_expirations, 1u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(PlanCache, ZeroTtlMeansNegativeEntriesNeverExpire) {
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  PlanCacheOptions opts;
  opts.capacity = 2;
  opts.negative_ttl = std::chrono::milliseconds(0);  // pre-TTL behavior
  PlanCache cache(opts);
  bool hit = true;
  const auto p1 = cache.acquire(bad, PlanConfig{}, &hit);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto p2 = cache.acquire(bad, PlanConfig{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().negative_expirations, 0u);
}

TEST(PlanCache, InjectedFailureProducesNegativeEntryButSparesHits) {
  const Csr good = fv_like(6, 0.5);
  PlanCache cache(4);
  bool hit = true;

  // An injected failure poisons the *build* it rides on...
  const auto p1 =
      cache.acquire(good, PlanConfig{}, &hit, "injected (chaos)");
  EXPECT_FALSE(hit);
  EXPECT_EQ(p1->kernel, nullptr);
  EXPECT_EQ(p1->kernel_error, "injected (chaos)");
  EXPECT_EQ(cache.stats().negative_entries, 1u);

  // ...but an already-built plan does not retroactively fail.
  cache.clear();
  const auto p2 = cache.acquire(good, PlanConfig{}, &hit);
  ASSERT_NE(p2->kernel, nullptr);
  const auto p3 = cache.acquire(good, PlanConfig{}, &hit, "injected (chaos)");
  EXPECT_TRUE(hit);
  EXPECT_EQ(p2.get(), p3.get());
  EXPECT_NE(p3->kernel, nullptr);
}

TEST(PlanCache, ClearDropsEverything) {
  PlanCache cache(4);
  const Csr a = fv_like(6, 0.5);
  const auto held = cache.acquire(a, PlanConfig{});
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.peek(matrix_fingerprint(a), PlanConfig{}), nullptr);
  EXPECT_NE(held->kernel, nullptr);  // in-flight handle survives clear()
}

}  // namespace
}  // namespace bars::service
