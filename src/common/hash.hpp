// Hash combinators for composite DP states and interned keys.
#ifndef TREEDL_COMMON_HASH_HPP_
#define TREEDL_COMMON_HASH_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace treedl {

/// The murmur3 64-bit finalizer: every input bit reaches every output bit,
/// so the low bits that open-addressing tables probe with are well spread.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Mixes `value`'s hash into `seed` (boost::hash_combine recipe, 64-bit).
template <typename T>
void HashCombine(size_t* seed, const T& value) {
  size_t h = std::hash<T>{}(value);
  *seed ^= h + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// Hash for a vector of hashable elements (order-sensitive).
template <typename T>
size_t HashRange(const std::vector<T>& values, size_t seed = 0xcbf29ce484222325ULL) {
  for (const T& v : values) HashCombine(&seed, v);
  HashCombine(&seed, values.size());
  return seed;
}

}  // namespace treedl

#endif  // TREEDL_COMMON_HASH_HPP_
