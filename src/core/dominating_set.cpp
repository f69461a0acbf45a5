#include <algorithm>

#include "core/bag_codec.hpp"
#include "core/extensions.hpp"

namespace treedl::core {

namespace {

using Codec = BagCodec<2>;

// Per bag position, 2 bits (BagCodec<2>): in the dominating set, already
// dominated, or still waiting. Waiting is the only code with the high bit.
enum : uint64_t { kInSet = 0, kDominated = 1, kWaiting = 2 };

// Field masks of the waiting positions and of the positions outside the set.
uint64_t WaitingOf(uint64_t s) { return (s >> 1) & Codec::kLowBits; }
uint64_t OutOf(uint64_t s) { return (s | (s >> 1)) & Codec::kLowBits; }

class DominatingProblem {
 public:
  using State = uint64_t;
  using Value = size_t;
  using Node = NodeMasks<2>;

  explicit DominatingProblem(const Graph& graph) : graph_(graph) {}

  Node AtNode(const NormNode& node) const { return Node(graph_, node); }

  // Every in-set mask in increasing order, with bag-internal domination.
  template <typename Emit>
  void Leaf(const Node& node, const Emit& emit) const {
    size_t n = node.size;
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      uint64_t in_set = Codec::Spread(mask);
      State s = 0;
      for (size_t i = 0; i < n; ++i) {
        if (in_set & Codec::Bit(i)) continue;
        uint64_t status = (node.pos_adj[i] & in_set) ? kDominated : kWaiting;
        s |= status * Codec::Bit(i);
      }
      emit(s, Codec::Count(in_set));
    }
  }

  template <typename Emit>
  void Introduce(const Node& node, const State& child, const Value& value,
                 const Emit& emit) const {
    // Choice 1: v joins the dominating set — it dominates its waiting bag
    // neighbours (10 -> 01).
    {
      State s = Codec::Insert(child, node.pos, kInSet);
      uint64_t newly = WaitingOf(s) & node.adj;
      emit(s ^ (newly | (newly << 1)), value + 1);
    }
    // Choice 2: v stays out; it is dominated iff some bag neighbour is in the
    // set (v cannot have neighbours in the already-forgotten part).
    {
      bool dominated = (~OutOf(child) & node.child_adj) != 0;
      emit(Codec::Insert(child, node.pos, dominated ? kDominated : kWaiting),
           value);
    }
  }

  // A forgotten vertex can never be dominated later.
  template <typename Emit>
  void Forget(const Node& node, const State& child, const Value& value,
              const Emit& emit) const {
    if (Codec::Get(child, node.pos) == kWaiting) return;
    emit(Codec::Erase(child, node.pos), value);
  }

  // Join key: the in-set pattern (domination flags may differ between
  // sides), as the mask of positions outside the set.
  uint64_t KeyOf(const State& s) const { return OutOf(s); }

  // Per position outside the set: dominated (01) if either side is, else
  // waiting (10) — the OR of the low bits and the AND of the high bits.
  template <typename Emit>
  void Join(const Node& node, const State& a, const Value& va,
            const State& b, const Value& vb, const Emit& emit) const {
    size_t shared = node.size - Codec::Count(OutOf(a));
    State s = ((a | b) & Codec::kLowBits) | (a & b & ~Codec::kLowBits);
    emit(s, va + vb - shared);
  }

  Value Merge(const Value& a, const Value& b) const { return std::min(a, b); }

 private:
  const Graph& graph_;
};

}  // namespace

std::function<StatusOr<size_t>()> AddDominatingSetPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd) {
  const auto* table = multi->Add(DominatingProblem(graph),
                                 /*retain_tables=*/false);
  return [table, &graph, &ntd]() -> StatusOr<size_t> {
    size_t best = graph.NumVertices() + 1;
    for (const auto& [state, value] : table->at(ntd.root())) {
      if (WaitingOf(state) == 0) best = std::min(best, value);
    }
    if (best > graph.NumVertices()) {
      // Every graph has a dominating set (all vertices); reaching this means
      // an internal inconsistency.
      return Status::Internal("no dominating-set state survived to the root");
    }
    return best;
  };
}

}  // namespace treedl::core
