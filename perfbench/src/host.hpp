#pragma once

#include <cstddef>
#include <string>

/// \file host.hpp
/// Facts about the machine a run was measured on, so snapshots taken on
/// different hosts can be told apart, and an in-benchmark STREAM-style
/// triad giving the single-thread memory bandwidth the sweep layer is
/// judged against.

namespace perfbench {

struct HostFacts {
  unsigned nproc = 0;  ///< CPUs this process may run on
  std::string cpu_model;
  std::size_t l2_bytes = 0;
  std::size_t llc_bytes = 0;  ///< last-level cache (L3, else L2)
  std::string compiler;
  std::string build_type;
};

[[nodiscard]] HostFacts host_facts();

struct TriadResult {
  double gbps = 0.0;            ///< best of `reps`, STREAM byte counting
  std::size_t array_bytes = 0;  ///< each of the three arrays
  int reps = 0;
};

/// a[i] = b[i] + s * c[i] on one thread with three arrays of
/// max(4 x LLC, 64 MiB) bytes each; counts 3 x 8 bytes per element
/// (no write-allocate), reports the best repetition.
[[nodiscard]] TriadResult run_triad(std::size_t llc_bytes);

}  // namespace perfbench
