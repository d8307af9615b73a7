#include "core/solver_types.hpp"

#include <cmath>

#include "common/check.hpp"

namespace bars {

value_t relative_residual(const Csr& a, std::span<const value_t> b,
                          std::span<const value_t> x) {
  BARS_DCHECK(static_cast<index_t>(b.size()) == a.rows())
      << "relative_residual b: " << b.size() << " vs rows " << a.rows();
  // One pass, no temporary: each r_i = b_i - A_i x is formed exactly as
  // Csr::residual forms it and squared into the sum in row order, as is
  // b_i, so the result is bit-identical to norm2(residual) / norm2(b).
  const auto row_ptr = a.row_ptr();
  const auto col = a.col_idx();
  const auto val = a.values();
  value_t rr = 0.0;
  value_t bb = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    value_t s = b[i];
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      s -= val[k] * x[col[k]];
    }
    rr += s * s;
    bb += b[i] * b[i];
  }
  const value_t nb = std::sqrt(bb);
  const value_t nr = std::sqrt(rr);
  return nb > 0.0 ? nr / nb : nr;
}

}  // namespace bars
