#pragma once

/// \file hash.hpp
/// 64-bit hashing utilities shared by the sketch module (packet identity
/// hashing for LogLog counters) and the MAFIC flow tables (hashed 4-tuple
/// labels, paper section III-B).

#include <cstdint>
#include <string_view>

namespace mafic::util {

/// Stafford variant 13 of the MurmurHash3 64-bit finalizer. Good avalanche;
/// suitable as the hash behind both flow-table keys and LogLog registers.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combines two 64-bit hashes (boost-style but with a 64-bit constant).
constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                     std::uint64_t value) noexcept {
  return seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

/// FNV-1a for byte strings (used for hashing textual identifiers in tests
/// and for deriving per-sketch hash seeds from names).
constexpr std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A stateless Bernoulli(p) draw keyed by (seed, key, uid): true with
/// probability p, from 53 uniform mantissa bits of a mix of the three.
/// The same triple always gives the same draw, whichever engine makes it
/// and whatever interleaves — the MAFIC Pd coin (FilterEngine, keyed by
/// flow key and packet uid) and the proportional baseline both use it.
constexpr bool hash_coin(double p, std::uint64_t seed, std::uint64_t key,
                         std::uint64_t uid) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const std::uint64_t h = mix64(seed ^ key ^ mix64(uid));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

/// Seeded mixing: h(seed, x). Distinct seeds give (empirically) independent
/// hash functions, which the set-union sketches rely on.
constexpr std::uint64_t seeded_hash(std::uint64_t seed,
                                    std::uint64_t x) noexcept {
  return mix64(x ^ mix64(seed ^ 0x2545F4914F6CDD1DULL));
}

}  // namespace mafic::util
