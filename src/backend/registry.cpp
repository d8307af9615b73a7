#include "backend/registry.hpp"

#include <stdexcept>
#include <utility>

#include "backend/block_jacobi_kernel.hpp"
#include "backend/simd_kernel.hpp"
#include "common/annotations.hpp"

namespace bars::backend {

namespace {

class ScalarBackend final : public KernelBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "scalar";
  }
  [[nodiscard]] BackendCaps caps() const noexcept override {
    // parallel_commit_safe is the backend's best case; a kernel built
    // with overlap > 0 reports false itself.
    return {/*parallel_commit_safe=*/true, /*deterministic=*/true,
            /*vector_width=*/1};
  }
  [[nodiscard]] bool available() const noexcept override { return true; }

  [[nodiscard]] std::unique_ptr<BlockSweepKernel> make_kernel(
      const Csr& a, const Vector& b, RowPartition partition,
      const KernelConfig& config) const override {
    return std::make_unique<BlockJacobiKernel>(
        a, b, std::move(partition), config.local_iters, config.sweep,
        config.local_omega, config.overlap);
  }
};

class SimdBackend final : public KernelBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "simd";
  }
  [[nodiscard]] BackendCaps caps() const noexcept override {
    // The width the kernel actually sweeps with on this machine.
    return {/*parallel_commit_safe=*/true, /*deterministic=*/true,
            /*vector_width=*/detail::simd_native_lanes()};
  }
  [[nodiscard]] bool available() const noexcept override {
    return simd_available();
  }

  [[nodiscard]] std::unique_ptr<BlockSweepKernel> make_kernel(
      const Csr& a, const Vector& b, RowPartition partition,
      const KernelConfig& config) const override {
    return std::make_unique<SimdBlockSweepKernel>(a, b, std::move(partition),
                                                  config);
  }
};

struct Registry {
  common::Mutex mu;
  std::vector<std::unique_ptr<KernelBackend>> providers BARS_GUARDED_BY(mu);

  Registry() {
    providers.push_back(std::make_unique<ScalarBackend>());
    providers.push_back(std::make_unique<SimdBackend>());
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

std::string known_names_locked(const Registry& r)
    BARS_NO_THREAD_SAFETY_ANALYSIS {
  std::string names;
  for (const auto& p : r.providers) {
    if (!names.empty()) names += ", ";
    names += p->name();
  }
  return names;
}

const KernelBackend* find_locked(const Registry& r, const std::string& name)
    BARS_NO_THREAD_SAFETY_ANALYSIS {
  for (const auto& p : r.providers) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

/// Count a resolution on the caller's registry. Setup path: may
/// allocate (the record-hot contract applies to inc(), not here).
void count_use(telemetry::MetricsRegistry* metrics, const KernelBackend& used,
               bool fell_back) {
  if (metrics == nullptr) return;
  metrics->counter("backend_used_" + std::string(used.name())).inc();
  if (fell_back) metrics->counter("backend_fallbacks").inc();
}

}  // namespace

std::vector<std::string> backend_names() {
  Registry& r = registry();
  common::MutexLock lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.providers.size());
  for (const auto& p : r.providers) names.emplace_back(p->name());
  return names;
}

const KernelBackend& find_backend(const std::string& name) {
  Registry& r = registry();
  common::MutexLock lock(r.mu);
  if (name.empty() || name == "auto") {
    for (const auto& p : r.providers) {
      if (p->name() != "scalar" && p->available()) return *p;
    }
    const KernelBackend* scalar = find_locked(r, "scalar");
    return *scalar;  // always registered
  }
  if (const KernelBackend* p = find_locked(r, name)) return *p;
  throw std::invalid_argument("unknown backend '" + name +
                              "'; valid backends: " + known_names_locked(r) +
                              " (or 'auto')");
}

void register_backend(std::unique_ptr<KernelBackend> provider) {
  if (provider == nullptr) {
    throw std::invalid_argument("register_backend: null provider");
  }
  const std::string name(provider->name());
  if (name.empty() || name == "auto") {
    throw std::invalid_argument("register_backend: reserved name '" + name +
                                "'");
  }
  Registry& r = registry();
  common::MutexLock lock(r.mu);
  if (find_locked(r, name) != nullptr) {
    throw std::invalid_argument("register_backend: '" + name +
                                "' already registered");
  }
  r.providers.push_back(std::move(provider));
}

const KernelBackend& select_backend(const std::string& name,
                                    telemetry::MetricsRegistry* metrics) {
  const KernelBackend& requested = find_backend(name);
  if (requested.available()) {
    count_use(metrics, requested, /*fell_back=*/false);
    return requested;
  }
  const KernelBackend& scalar = find_backend("scalar");
  count_use(metrics, scalar, /*fell_back=*/true);
  return scalar;
}

std::unique_ptr<BlockSweepKernel> build_kernel(
    const std::string& name, const Csr& a, const Vector& b,
    RowPartition partition, const KernelConfig& config,
    telemetry::MetricsRegistry* metrics) {
  const KernelBackend& chosen = select_backend(name, metrics);
  try {
    // Pass a copy: `partition` must survive for the scalar retry below.
    return chosen.make_kernel(a, b, partition, config);
  } catch (const backend_unsupported&) {
    // The selected backend cannot express this configuration (e.g.
    // Gauss-Seidel sweeps on "simd"): degrade to scalar, which
    // supports the full KernelConfig surface.
    const KernelBackend& scalar = find_backend("scalar");
    count_use(metrics, scalar, /*fell_back=*/true);
    return scalar.make_kernel(a, b, std::move(partition), config);
  }
}

}  // namespace bars::backend
