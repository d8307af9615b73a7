#pragma once

#include <vector>

#include "sparse/types.hpp"

/// \file partition.hpp
/// Row-block partitions: the "subdomains" of Algorithm 1. Each block of
/// contiguous rows is assigned to one (simulated) GPU thread block.

namespace bars {

/// Half-open row range [begin, end) handled by one thread block.
struct RowBlock {
  index_t begin = 0;
  index_t end = 0;
  [[nodiscard]] index_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool contains(index_t i) const noexcept {
    return i >= begin && i < end;
  }
  friend bool operator==(const RowBlock&, const RowBlock&) = default;
};

/// Partition of [0, n) into contiguous blocks.
class RowPartition {
 public:
  RowPartition() = default;

  /// Uniform partition: ceil(n / block_size) blocks of size block_size
  /// (last one possibly smaller). Throws if block_size <= 0 or n < 0.
  static RowPartition uniform(index_t n, index_t block_size);

  /// Split [0, n) into exactly `parts` nearly-equal contiguous blocks.
  static RowPartition balanced(index_t n, index_t parts);

  /// Build from explicit boundaries b_0=0 < b_1 < ... < b_k=n.
  static RowPartition from_boundaries(std::vector<index_t> boundaries);

  [[nodiscard]] index_t num_blocks() const noexcept {
    return static_cast<index_t>(boundaries_.size()) - 1;
  }
  [[nodiscard]] index_t total_rows() const noexcept {
    return boundaries_.empty() ? 0 : boundaries_.back();
  }
  [[nodiscard]] RowBlock block(index_t b) const;
  /// Which block owns row i. O(log num_blocks).
  [[nodiscard]] index_t block_of(index_t i) const;

  /// Dense row -> owning-block lookup table (size total_rows()):
  /// table[i] == block_of(i) with O(1) access. Built in O(n); callers
  /// on a hot path (executor halo analysis, the service plan cache)
  /// build it once instead of calling block_of per row.
  [[nodiscard]] std::vector<index_t> owner_table() const;

  /// Group consecutive blocks into `devices` nearly-equal sets: returns,
  /// for each device, the half-open range of block ids it owns. Used for
  /// the multi-GPU decomposition (Section 3.4).
  [[nodiscard]] std::vector<std::pair<index_t, index_t>> device_split(
      index_t devices) const;

 private:
  std::vector<index_t> boundaries_{0};
};

}  // namespace bars
