#include "core/three_color.hpp"

#include <algorithm>

#include "core/bag_codec.hpp"

namespace treedl::core {

namespace {

using Codec = BagCodec<2>;

// State: the bag coloring, one 2-bit colour per bag position (BagCodec<2>).
//
// Shared transition logic, parameterized over the value semiring:
//   decision: Value = monostate, Merge = first;
//   counting: Value = uint64_t, Leaf seeds 1, Merge adds, Join multiplies.
template <bool kCounting>
class ColorProblem {
 public:
  using State = uint64_t;
  using Value = std::conditional_t<kCounting, uint64_t, std::monostate>;
  using Node = NodeMasks<2>;

  explicit ColorProblem(const Graph& graph) : graph_(graph) {}

  Node AtNode(const NormNode& node) const { return Node(graph_, node); }

  // Every proper coloring, in the order of the base-3 odometer with position
  // 0 fastest: positions are coloured from the top down, 0 before 1 before
  // 2, each tested against the positions above it.
  template <typename Emit>
  void Leaf(const Node& node, const Emit& emit) const {
    auto assign = [&](auto& self, size_t pos, State s) -> void {
      if (pos == 0) {
        emit(s, One());
        return;
      }
      --pos;
      for (uint64_t c = 0; c < 3; ++c) {
        if ((Codec::Equal(s, c) & node.AdjAbove(pos)) == 0) {
          self(self, pos, s | (c * Codec::Bit(pos)));
        }
      }
    };
    assign(assign, node.size, 0);
  }

  // allowed(s, ·): the new vertex must not clash with its bag neighbours.
  template <typename Emit>
  void Introduce(const Node& node, const State& child, const Value& value,
                 const Emit& emit) const {
    for (uint64_t c = 0; c < 3; ++c) {
      if ((Codec::Equal(child, c) & node.child_adj) == 0) {
        emit(Codec::Insert(child, node.pos, c), value);
      }
    }
  }

  template <typename Emit>
  void Forget(const Node& node, const State& child, const Value& value,
              const Emit& emit) const {
    emit(Codec::Erase(child, node.pos), value);
  }

  template <typename Emit>
  void Join(const Node& /*node*/, const State& a, const Value& va,
            const State& /*b*/, const Value& vb, const Emit& emit) const {
    if constexpr (kCounting) {
      emit(a, va * vb);
    } else {
      (void)vb;
      emit(a, va);
    }
  }

  Value Merge(const Value& a, const Value& b) const {
    if constexpr (kCounting) {
      return a + b;
    } else {
      (void)b;
      return a;
    }
  }

 private:
  static Value One() {
    if constexpr (kCounting) {
      return 1;
    } else {
      return {};
    }
  }

  const Graph& graph_;
};

size_t PositionInBag(const std::vector<ElementId>& bag, ElementId e) {
  return static_cast<size_t>(
      std::lower_bound(bag.begin(), bag.end(), e) - bag.begin());
}

// Reconstructs one proper coloring by walking the table top-down from an
// accepting root state, re-deriving a consistent predecessor at each node.
std::vector<int> ExtractColoring(const Graph& graph,
                                 const NormalizedTreeDecomposition& ntd,
                                 const DpTable<uint64_t, std::monostate>& table,
                                 uint64_t root_state) {
  std::vector<int> colors(graph.NumVertices(), -1);
  // chosen[node] = the state selected for that node.
  std::vector<uint64_t> chosen(ntd.NumNodes());
  std::vector<bool> has_chosen(ntd.NumNodes(), false);
  chosen[static_cast<size_t>(ntd.root())] = root_state;
  has_chosen[static_cast<size_t>(ntd.root())] = true;

  for (TdNodeId id : ntd.PreOrder()) {
    TREEDL_CHECK(has_chosen[static_cast<size_t>(id)]);
    const NormNode& node = ntd.node(id);
    uint64_t state = chosen[static_cast<size_t>(id)];
    for (size_t i = 0; i < node.bag.size(); ++i) {
      colors[node.bag[i]] = static_cast<int>(Codec::Get(state, i));
    }
    auto set_child = [&](TdNodeId child, uint64_t s) {
      chosen[static_cast<size_t>(child)] = s;
      has_chosen[static_cast<size_t>(child)] = true;
    };
    switch (node.kind) {
      case NormNodeKind::kLeaf:
        break;
      case NormNodeKind::kCopy:
      case NormNodeKind::kBranch:
        for (TdNodeId c : node.children) set_child(c, state);
        break;
      case NormNodeKind::kIntroduce: {
        uint64_t child_state =
            Codec::Erase(state, PositionInBag(node.bag, node.element));
        TREEDL_CHECK(table.at(node.children[0]).count(child_state) > 0)
            << "introduce predecessor missing";
        set_child(node.children[0], child_state);
        break;
      }
      case NormNodeKind::kForget: {
        size_t pos = PositionInBag(node.bag, node.element);
        bool found = false;
        for (uint64_t c = 0; c < 3 && !found; ++c) {
          uint64_t child_state = Codec::Insert(state, pos, c);
          if (table.at(node.children[0]).count(child_state)) {
            set_child(node.children[0], child_state);
            found = true;
          }
        }
        TREEDL_CHECK(found) << "forget predecessor missing";
        break;
      }
    }
  }
  return colors;
}

}  // namespace

std::function<StatusOr<ThreeColorResult>()> AddThreeColorPass(
    MultiDp* multi, const Graph& graph, const NormalizedTreeDecomposition& ntd,
    bool extract_coloring) {
  // Only the witness walk needs interior tables after the traversal; a pure
  // decision pass reads the root alone and its tables may be evicted.
  const auto* table = multi->Add(ColorProblem<false>(graph),
                                 /*retain_tables=*/extract_coloring);
  return [table, &graph, &ntd,
          extract_coloring]() -> StatusOr<ThreeColorResult> {
    ThreeColorResult result;
    const auto& root_states = table->at(ntd.root());
    result.colorable = !root_states.empty();
    if (result.colorable && extract_coloring) {
      result.coloring =
          ExtractColoring(graph, ntd, *table, root_states.begin()->first);
    }
    return result;
  };
}

std::function<StatusOr<uint64_t>()> AddThreeColorCountPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd) {
  const auto* table = multi->Add(ColorProblem<true>(graph),
                                 /*retain_tables=*/false);
  return [table, &ntd]() -> StatusOr<uint64_t> {
    uint64_t total = 0;
    for (const auto& [state, count] : table->at(ntd.root())) total += count;
    return total;
  };
}

}  // namespace treedl::core
