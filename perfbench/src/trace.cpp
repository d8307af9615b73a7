#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(std::size_t reserve) : epoch_(Clock::now()) {
  spans_.reserve(reserve);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint64_t op) {
  spans_.push_back({name, now_ns(), 0, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

double Tracer::seconds(std::int32_t id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
}

std::vector<Tracer::Ledger> Tracer::ledgers(
    const std::vector<std::int32_t>& ids) const {
  std::vector<std::int32_t> slot(spans_.size(), -1);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    slot[static_cast<std::size_t>(ids[k])] = static_cast<std::int32_t>(k);
  }
  // Children are appended in start order, so one pass per parent can
  // merge their intervals without sorting.
  std::vector<Ledger> out(ids.size());
  std::vector<std::int64_t> covered_to(ids.size(), 0);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const Span& p = spans_[static_cast<std::size_t>(ids[k])];
    out[k].wall_s = 1e-9 * static_cast<double>(p.end_ns - p.start_ns);
    covered_to[k] = p.start_ns;
  }
  std::vector<double> covered_s(ids.size(), 0.0);
  for (const Span& c : spans_) {
    if (c.parent < 0) continue;
    const std::int32_t k = slot[static_cast<std::size_t>(c.parent)];
    if (k < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(c.parent)];
    out[static_cast<std::size_t>(k)].children_s +=
        1e-9 * static_cast<double>(c.end_ns - c.start_ns);
    const std::int64_t lo = std::max(c.start_ns, p.start_ns);
    const std::int64_t hi = std::min(c.end_ns, p.end_ns);
    std::int64_t& to = covered_to[static_cast<std::size_t>(k)];
    const std::int64_t from = std::max(lo, to);
    if (hi > from) {
      covered_s[static_cast<std::size_t>(k)] +=
          1e-9 * static_cast<double>(hi - from);
      to = hi;
    }
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    out[k].self_s = out[k].wall_s - covered_s[k];
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span log " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
}

TracingKernel::TracingKernel(bars::backend::BlockSweepKernel& inner,
                             const bars::Csr& a, Tracer& tracer)
    : inner_(inner), a_(a), tracer_(tracer) {
  compute_block_bytes();
}

void TracingKernel::compute_block_bytes() {
  // Per sweep a CSR block update streams its values and column indices
  // once, reads the row pointers, reads b and x and writes x per row;
  // the halo values are read once per update.
  constexpr double kVal = sizeof(bars::value_t);
  constexpr double kIdx = sizeof(bars::index_t);
  const auto row_ptr = a_.row_ptr();
  block_bytes_.resize(static_cast<std::size_t>(inner_.num_blocks()));
  for (bars::index_t b = 0; b < inner_.num_blocks(); ++b) {
    const auto [lo, hi] = inner_.rows(b);
    const auto nnz = static_cast<double>(row_ptr[static_cast<std::size_t>(hi)] -
                                         row_ptr[static_cast<std::size_t>(lo)]);
    const auto nrows = static_cast<double>(hi - lo);
    const auto sweeps = static_cast<double>(inner_.block_local_iters(b));
    block_bytes_[static_cast<std::size_t>(b)] =
        sweeps * (nnz * (kVal + kIdx) + nrows * (kIdx + 3.0 * kVal)) +
        static_cast<double>(inner_.halo(b).size()) * kVal;
  }
}

void TracingKernel::start_solve(std::int32_t span, std::uint64_t op) {
  parent_ = span;
  op_ = op;
  updates_ = 0;
  halo_values_ = 0;
  bytes_ = 0.0;
}

bars::index_t TracingKernel::num_blocks() const { return inner_.num_blocks(); }
bars::index_t TracingKernel::num_rows() const { return inner_.num_rows(); }
std::span<const bars::index_t> TracingKernel::halo(bars::index_t block) const {
  return inner_.halo(block);
}
std::pair<bars::index_t, bars::index_t> TracingKernel::rows(
    bars::index_t block) const {
  return inner_.rows(block);
}

void TracingKernel::update(bars::index_t block,
                           std::span<const bars::value_t> halo_values,
                           std::span<bars::value_t> x,
                           const bars::gpusim::ExecContext& ctx) const {
  const std::int32_t id = tracer_.begin("backend.update", parent_, op_);
  inner_.update(block, halo_values, x, ctx);
  tracer_.end(id);
  ++updates_;
  halo_values_ += halo_values.size();
  bytes_ += block_bytes_[static_cast<std::size_t>(block)];
}

void TracingKernel::set_rhs(const bars::Vector& b) { inner_.set_rhs(b); }
const bars::Vector& TracingKernel::rhs() const noexcept { return inner_.rhs(); }
const bars::RowPartition& TracingKernel::partition() const noexcept {
  return inner_.partition();
}
bars::index_t TracingKernel::local_iters() const noexcept {
  return inner_.local_iters();
}
bars::index_t TracingKernel::overlap() const noexcept {
  return inner_.overlap();
}
void TracingKernel::set_per_block_iters(std::vector<bars::index_t> per_block) {
  inner_.set_per_block_iters(std::move(per_block));
  compute_block_bytes();
}
bars::index_t TracingKernel::block_local_iters(bars::index_t block) const {
  return inner_.block_local_iters(block);
}
std::string_view TracingKernel::backend_name() const noexcept {
  return inner_.backend_name();
}

}  // namespace perfbench
