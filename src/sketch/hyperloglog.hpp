#pragma once

/// \file hyperloglog.hpp
/// HyperLogLog (Flajolet et al. 2007) — the harmonic-mean successor of
/// LogLog. Provided as an ablation comparator for the pushback sketch
/// (bench_sketch_micro compares the two): same interface, same
/// mergeability, better constant (~1.04/sqrt(m) vs LogLog's ~1.30/sqrt(m)).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/hash.hpp"

namespace mafic::sketch {

class HyperLogLog {
 public:
  explicit HyperLogLog(unsigned precision_bits = 10,
                       std::uint64_t hash_seed = 0);

  void add(std::uint64_t item) noexcept;
  double estimate() const noexcept;
  void merge(const HyperLogLog& other);
  static double union_estimate(const HyperLogLog& a, const HyperLogLog& b);

  bool compatible(const HyperLogLog& other) const noexcept {
    return registers_.size() == other.registers_.size() &&
           hash_seed_ == other.hash_seed_;
  }

  void reset() noexcept {
    std::fill(registers_.begin(), registers_.end(), std::uint8_t{0});
    items_added_ = 0;
  }

  std::size_t register_count() const noexcept { return registers_.size(); }
  std::uint64_t items_added() const noexcept { return items_added_; }
  std::size_t memory_bytes() const noexcept { return registers_.size(); }

 private:
  unsigned precision_bits_;
  std::uint64_t hash_seed_;
  std::vector<std::uint8_t> registers_;
  std::uint64_t items_added_ = 0;
  double alpha_m_;
};

}  // namespace mafic::sketch
