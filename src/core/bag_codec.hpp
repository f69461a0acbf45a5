// BagCodec: the packed state word of the graph DPs.
//
// A graph-DP state assigns one small code to every vertex of the node's
// sorted bag — in/out of the set for vertex cover and independent set, the
// colour for 3-colorability, in-set/dominated/waiting for dominating set.
// BagCodec<kBits> packs those codes into one uint64_t: bag position i owns
// bits [i*kBits, (i+1)*kBits). Unused high positions are zero, so two states
// over the same bag are equal iff their words are, and the word itself is the
// FlatTable key.
//
// The primality DP (core/primality_internal.hpp) uses the same codec for its
// derivation order, one 4-bit attribute rank per sequence position.
//
// Masks over bag positions ("field masks") use the same layout with only the
// low bit of each position's field set; NodeMasks holds the ones a node's
// transitions test against, computed once per node from the graph — no
// transition asks the graph anything per state.
#ifndef TREEDL_CORE_BAG_CODEC_HPP_
#define TREEDL_CORE_BAG_CODEC_HPP_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "td/normalize.hpp"

namespace treedl::core {

/// The widest bag a packed graph-DP state covers: 2 bits per position in 64.
inline constexpr size_t kMaxBagPositions = 32;

/// ResourceExhausted (a capacity error) when some bag of `ntd` exceeds
/// kMaxBagPositions — the graph DPs refuse such a decomposition before the
/// walk starts.
inline Status CheckBagCapacity(const NormalizedTreeDecomposition& ntd) {
  size_t largest = static_cast<size_t>(ntd.Width() + 1);
  if (largest <= kMaxBagPositions) return Status::OK();
  return Status::CapacityExceeded(
      "bag of " + std::to_string(largest) + " vertices exceeds the " +
      std::to_string(kMaxBagPositions) +
      "-position state word of the graph DPs");
}

template <unsigned kBits>
struct BagCodec {
  static_assert(kBits == 1 || kBits == 2 || kBits == 4);
  static constexpr uint64_t kCode = (uint64_t{1} << kBits) - 1;
  /// The low bit of every position's field.
  static constexpr uint64_t kLowBits = kBits == 1   ? ~uint64_t{0}
                                       : kBits == 2 ? 0x5555555555555555ULL
                                                    : 0x1111111111111111ULL;

  /// Field mask of position `pos`.
  static constexpr uint64_t Bit(size_t pos) {
    return uint64_t{1} << (pos * kBits);
  }

  /// Bits of positions [0, n).
  static constexpr uint64_t Below(size_t n) {
    return n * kBits >= 64 ? ~uint64_t{0} : (uint64_t{1} << (n * kBits)) - 1;
  }

  static constexpr uint64_t Get(uint64_t word, size_t pos) {
    return (word >> (pos * kBits)) & kCode;
  }

  /// `word` with `code` inserted at `pos`; positions >= pos move up by one.
  static constexpr uint64_t Insert(uint64_t word, size_t pos, uint64_t code) {
    uint64_t low = Below(pos);
    return (word & low) | (code << (pos * kBits)) | ((word & ~low) << kBits);
  }

  /// `word` with position `pos` removed; positions > pos move down by one.
  static constexpr uint64_t Erase(uint64_t word, size_t pos) {
    uint64_t low = Below(pos);
    return (word & low) | ((word >> kBits) & ~low);
  }

  /// Field mask of the positions whose code is `code`, among positions
  /// [0, 32) — callers intersect with a mask of real positions.
  static constexpr uint64_t Equal(uint64_t word, uint64_t code)
    requires(kBits == 2)
  {
    uint64_t diff = word ^ (code * kLowBits);
    return ~(diff | (diff >> 1)) & kLowBits;
  }

  /// Field mask of the set bits of `bits` (bit i -> position i, i < 32).
  static constexpr uint64_t Spread(uint64_t bits)
    requires(kBits == 2)
  {
    uint64_t x = bits & 0xFFFFFFFFULL;
    x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
    x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    x = (x | (x << 2)) & 0x3333333333333333ULL;
    return (x | (x << 1)) & kLowBits;
  }

  static constexpr size_t Count(uint64_t field_mask) {
    return static_cast<size_t>(std::popcount(field_mask));
  }
};

/// What one node's transitions test against, as field masks of
/// BagCodec<kBits>. `pos` is the position of the introduced or forgotten
/// element in the larger of the two bags involved (this bag for introduce,
/// the child's for forget).
template <unsigned kBits>
struct NodeMasks {
  using Codec = BagCodec<kBits>;

  size_t size = 0;  // |bag|
  size_t pos = 0;
  /// Introduce: the element's neighbours over this bag / over the child bag.
  uint64_t adj = 0;
  uint64_t child_adj = 0;
  /// Leaf: per position, its neighbours over the bag.
  std::vector<uint64_t> pos_adj;

  NodeMasks(const Graph& graph, const NormNode& node) : size(node.bag.size()) {
    const std::vector<ElementId>& bag = node.bag;
    auto neighbours = [&](ElementId v) {
      uint64_t mask = 0;
      for (size_t j = 0; j < bag.size(); ++j) {
        if (bag[j] != v && graph.HasEdge(v, bag[j])) mask |= Codec::Bit(j);
      }
      return mask;
    };
    switch (node.kind) {
      case NormNodeKind::kLeaf:
        pos_adj.resize(bag.size());
        for (size_t i = 0; i < bag.size(); ++i) pos_adj[i] = neighbours(bag[i]);
        break;
      case NormNodeKind::kIntroduce:
      case NormNodeKind::kForget:
        pos = static_cast<size_t>(
            std::lower_bound(bag.begin(), bag.end(), node.element) -
            bag.begin());
        if (node.kind == NormNodeKind::kIntroduce) {
          adj = neighbours(node.element);
          child_adj = Codec::Erase(adj, pos);
        }
        break;
      case NormNodeKind::kBranch:
      case NormNodeKind::kCopy:
        break;
    }
  }

  /// Leaf: neighbours of position i among the positions above it — the ones
  /// a top-down enumeration has already assigned when it reaches i.
  uint64_t AdjAbove(size_t i) const {
    return pos_adj[i] & ~Codec::Below(i + 1);
  }
};

}  // namespace treedl::core

#endif  // TREEDL_CORE_BAG_CODEC_HPP_
