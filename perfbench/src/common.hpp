#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

/// \file common.hpp
/// Shared vocabulary of the end-to-end benchmark: command-line
/// arguments, the result every workload fills in, seeded inputs and the
/// order statistics used to summarise wall-clock samples.

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of one run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string trace_dir;  ///< where the span log is written at the end
};

/// One reported number. Every value is wall-clock or an exact count;
/// `note` says how it was taken (sample count, statistic used, ...).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// What a workload run produced: its metrics (the JSON result), further
/// figures that are only printed, and the correctness ledger (every
/// checked operation counts as attempted; a failed check counts as
/// failed and makes the run incorrect).
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> printed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  /// A figure for the reader that is not part of the JSON result.
  void print(std::string name, double value, std::string unit,
             std::string note = {}) {
    printed.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  /// Count one checked operation; record `why` when the check failed.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 16) errors.push_back(why);
    }
  }
  /// A failed run-level check (not an operation): the run is incorrect.
  void fail(const std::string& why) { errors.push_back(why); }
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline Clock::time_point after(Clock::time_point t,
                                            double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

[[nodiscard]] inline double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Bit-for-bit equality of two iterates.
[[nodiscard]] inline bool same_bits(const bars::Vector& x,
                                    const bars::Vector& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Nearest-rank percentile (0 < p < 1) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The highest of p50/p90/p99 that leaves at least ten samples beyond
/// it in a sample of size n (the tail we can state honestly).
[[nodiscard]] double tail_percentile(std::size_t n);

/// Right-hand side with entries uniform in [0.5, 1.5), drawn from
/// (seed, salt): the same pair always gives the same vector.
[[nodiscard]] bars::Vector seeded_rhs(bars::index_t n, std::uint64_t seed,
                                      std::uint64_t salt);

/// ||b - A x|| / ||b||, recomputed by the benchmark itself (not by the
/// solver) so a solver that misreports its residual is caught.
[[nodiscard]] double checked_residual(const bars::Csr& a,
                                      const bars::Vector& b,
                                      const bars::Vector& x);

}  // namespace perfbench
