#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u) {
    return "unknown";
  }
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    unsigned* r = regs + 4 * leaf;
    __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::size_t cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

}  // namespace

HostFacts host_facts() {
  HostFacts h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  h.cpu_model = cpu_brand();
  h.l2_bytes = cache_bytes(_SC_LEVEL2_CACHE_SIZE);
  h.llc_bytes = cache_bytes(_SC_LEVEL3_CACHE_SIZE);
  if (h.llc_bytes == 0) h.llc_bytes = h.l2_bytes;
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

TriadResult run_triad(std::size_t llc_bytes) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  constexpr int kReps = 5;
  const std::size_t bytes = std::max(4 * llc_bytes, 64 * kMiB);
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = seconds_since(t0);
    // Feed the result back so the loop cannot be elided or hoisted.
    b[r % n] = a[(r * 7919) % n];
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) /
                              dt / 1e9);
  }
  return {best, n * sizeof(double), kReps};
}

}  // namespace perfbench
