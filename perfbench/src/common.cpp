#include "common.hpp"

#include <cmath>

#include "stats/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double tail_percentile(std::size_t n) {
  for (const double p : {0.99, 0.90}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) return p;
  }
  return 0.50;
}

bars::Vector seeded_rhs(bars::index_t n, std::uint64_t seed,
                        std::uint64_t salt) {
  bars::Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  bars::Vector b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(0.5, 1.5);
  return b;
}

double checked_residual(const bars::Csr& a, const bars::Vector& b,
                        const bars::Vector& x) {
  double rr = 0.0, bb = 0.0;
  for (bars::index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    double ax = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ax += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    const double r = b[static_cast<std::size_t>(i)] - ax;
    rr += r * r;
    bb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

}  // namespace perfbench
