#include <algorithm>

#include "core/bag_codec.hpp"
#include "core/extensions.hpp"

namespace treedl::core {

namespace {

// State: one membership bit per bag position (BagCodec<1>); the value is the
// number of cover/independent vertices committed in the subtree. Covers both
// vertex cover (minimize) and independent set (maximize) — the transitions
// differ only in the local feasibility predicate and the optimization sense.
// Every stored state is feasible on its bag, so an introduce only tests the
// new vertex's bag edges.
template <bool kCover>  // true: vertex cover (min), false: independent (max)
class SubsetProblem {
 public:
  using Codec = BagCodec<1>;
  using State = uint64_t;
  using Value = size_t;
  using Node = NodeMasks<1>;

  explicit SubsetProblem(const Graph& graph) : graph_(graph) {}

  Node AtNode(const NormNode& node) const { return Node(graph_, node); }

  // Vertex cover: an out vertex needs all its neighbours in the set.
  // Independent set: an in vertex needs all its neighbours out of it.
  static bool Allowed(uint64_t chosen, uint64_t set, uint64_t neighbours) {
    if constexpr (kCover) {
      return chosen != 0 || (set & neighbours) == neighbours;
    } else {
      return chosen == 0 || (set & neighbours) == 0;
    }
  }

  // Every feasible mask in increasing order: positions are assigned from the
  // top down, 0 before 1, each tested against the positions above it.
  template <typename Emit>
  void Leaf(const Node& node, const Emit& emit) const {
    auto assign = [&](auto& self, size_t pos, State s) -> void {
      if (pos == 0) {
        emit(s, Codec::Count(s));
        return;
      }
      --pos;
      for (uint64_t chosen : {0, 1}) {
        if (Allowed(chosen, s, node.AdjAbove(pos))) {
          self(self, pos, s | (chosen * Codec::Bit(pos)));
        }
      }
    };
    assign(assign, node.size, 0);
  }

  template <typename Emit>
  void Introduce(const Node& node, const State& child, const Value& value,
                 const Emit& emit) const {
    for (uint64_t chosen : {0, 1}) {
      if (Allowed(chosen, child, node.child_adj)) {
        emit(Codec::Insert(child, node.pos, chosen), value + chosen);
      }
    }
  }

  template <typename Emit>
  void Forget(const Node& node, const State& child, const Value& value,
              const Emit& emit) const {
    emit(Codec::Erase(child, node.pos), value);
  }

  // Bag members are counted in both children; subtract one copy.
  template <typename Emit>
  void Join(const Node& /*node*/, const State& a, const Value& va,
            const State& /*b*/, const Value& vb, const Emit& emit) const {
    emit(a, va + vb - Codec::Count(a));
  }

  Value Merge(const Value& a, const Value& b) const {
    return kCover ? std::min(a, b) : std::max(a, b);
  }

 private:
  const Graph& graph_;
};

}  // namespace

std::function<StatusOr<size_t>()> AddVertexCoverPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd) {
  const auto* table = multi->Add(SubsetProblem<true>(graph),
                                 /*retain_tables=*/false);
  return [table, &graph, &ntd]() -> StatusOr<size_t> {
    size_t best = graph.NumVertices();
    for (const auto& [state, value] : table->at(ntd.root())) {
      best = std::min(best, value);
    }
    return best;
  };
}

std::function<StatusOr<size_t>()> AddIndependentSetPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd) {
  const auto* table = multi->Add(SubsetProblem<false>(graph),
                                 /*retain_tables=*/false);
  return [table, &ntd]() -> StatusOr<size_t> {
    size_t best = 0;
    for (const auto& [state, value] : table->at(ntd.root())) {
      best = std::max(best, value);
    }
    return best;
  };
}

}  // namespace treedl::core
