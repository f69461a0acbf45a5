#include "td/validate.hpp"

#include <algorithm>
#include <span>

#include "common/logging.hpp"

namespace treedl {

namespace {

// Where every element occurs: the nodes whose bags hold it, in ascending node
// order, stored as compressed rows indexed by element id, plus the number of
// those nodes whose parent's bag holds it too. Built in two passes over the
// bags, so every check below is linear in the total bag size.
//
// Rows are indexed by the element id itself whenever the largest id is
// within `domain_size` + (total bag size); only a decomposition naming ids
// far outside any domain gets its ids ranked instead (sorted, so row order
// is still id order).
class Occurrences {
 public:
  Occurrences(const TreeDecomposition& td, size_t domain_size) {
    size_t entries = 0;
    uint64_t universe = 0;
    for (size_t i = 0; i < td.NumNodes(); ++i) {
      const auto& bag = td.Bag(static_cast<TdNodeId>(i));
      entries += bag.size();
      // Bags are sorted: the last element is the largest.
      if (!bag.empty()) universe = std::max(universe, uint64_t{bag.back()} + 1);
    }
    TREEDL_CHECK(entries < (size_t{1} << 32)) << "decomposition too large";
    universe_ = universe;
    if (universe > domain_size + entries) {
      ids_.reserve(entries);
      for (size_t i = 0; i < td.NumNodes(); ++i) {
        const auto& bag = td.Bag(static_cast<TdNodeId>(i));
        ids_.insert(ids_.end(), bag.begin(), bag.end());
      }
      std::sort(ids_.begin(), ids_.end());
      ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    }
    size_t rows = ids_.empty() ? static_cast<size_t>(universe) : ids_.size();

    // Pass 1: occurrence counts (into start_[row + 1]) and parent links. The
    // bag and its parent's bag are both sorted, so one merge finds the
    // shared elements.
    start_.assign(rows + 1, 0);
    linked_.assign(rows, 0);
    for (size_t i = 0; i < td.NumNodes(); ++i) {
      TdNodeId id = static_cast<TdNodeId>(i);
      const auto& bag = td.Bag(id);
      for (ElementId e : bag) ++start_[Row(e) + 1];
      TdNodeId parent = td.node(id).parent;
      if (parent == kNoTdNode) continue;
      const auto& up = td.Bag(parent);
      auto u = up.begin();
      for (ElementId e : bag) {
        while (u != up.end() && *u < e) ++u;
        if (u == up.end()) break;
        if (*u == e) ++linked_[Row(e)];
      }
    }
    for (size_t r = 0; r < rows; ++r) start_[r + 1] += start_[r];

    // Pass 2: the node lists.
    nodes_.resize(entries);
    std::vector<uint32_t> next(start_.begin(), start_.end() - 1);
    for (size_t i = 0; i < td.NumNodes(); ++i) {
      TdNodeId id = static_cast<TdNodeId>(i);
      for (ElementId e : td.Bag(id)) nodes_[next[Row(e)]++] = id;
    }
  }

  // One past the largest element id in any bag; 0 when every bag is empty.
  uint64_t universe() const { return universe_; }

  // The first element, lowest id first, whose occurrence nodes do not form
  // one connected subtree (condition 3): on a tree-shaped decomposition they
  // do iff exactly #occurrences - 1 of them have a parent holding it too.
  Status CheckConnectedness() const {
    for (size_t r = 0; r + 1 < start_.size(); ++r) {
      uint32_t count = start_[r + 1] - start_[r];
      if (count == 0 || linked_[r] == count - 1) continue;
      ElementId e = ids_.empty() ? static_cast<ElementId>(r) : ids_[r];
      return Status::InvalidArgument(
          "connectedness violated for element id " + std::to_string(e) + ": " +
          std::to_string(count) + " occurrences, " +
          std::to_string(linked_[r]) + " parent links");
    }
    return Status::OK();
  }

  // The nodes holding `e`. Only for a decomposition whose ids all lie below
  // the domain size it was built with (then rows are element ids).
  std::span<const TdNodeId> Nodes(ElementId e) const {
    if (e + size_t{1} >= start_.size()) return {};
    return {nodes_.data() + start_[e], nodes_.data() + start_[e + 1]};
  }

  // True iff some bag holds every element of `args` (which may repeat).
  // Only the bags of the least-occurring argument are tried.
  bool SomeBagCovers(const TreeDecomposition& td,
                     std::span<const ElementId> args) const {
    if (args.empty()) return !td.Empty();
    ElementId rarest = args[0];
    for (ElementId a : args) {
      if (Nodes(a).size() < Nodes(rarest).size()) rarest = a;
    }
    for (TdNodeId id : Nodes(rarest)) {
      const auto& bag = td.Bag(id);
      bool all = true;
      for (ElementId a : args) {
        if (a != rarest && !std::binary_search(bag.begin(), bag.end(), a)) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

 private:
  size_t Row(ElementId e) const {
    if (ids_.empty()) return e;
    return static_cast<size_t>(std::lower_bound(ids_.begin(), ids_.end(), e) -
                               ids_.begin());
  }

  uint64_t universe_ = 0;
  std::vector<ElementId> ids_;   // row -> element id, when ids are ranked
  std::vector<uint32_t> start_;  // row r: nodes_[start_[r], start_[r + 1])
  std::vector<TdNodeId> nodes_;
  std::vector<uint32_t> linked_;
};

Status CheckTreeShape(const TreeDecomposition& td) {
  if (td.Empty()) return Status::InvalidArgument("empty tree decomposition");
  if (td.root() == kNoTdNode) {
    return Status::InvalidArgument("tree decomposition has no root");
  }
  // PreOrder checks reachability of all nodes from the root.
  size_t seen = 0;
  std::vector<TdNodeId> stack{td.root()};
  std::vector<bool> visited(td.NumNodes(), false);
  while (!stack.empty()) {
    TdNodeId id = stack.back();
    stack.pop_back();
    if (visited[static_cast<size_t>(id)]) {
      return Status::InvalidArgument("cycle in tree decomposition");
    }
    visited[static_cast<size_t>(id)] = true;
    ++seen;
    for (TdNodeId c : td.node(id).children) {
      if (td.node(c).parent != id) {
        return Status::InvalidArgument("parent/child pointers inconsistent");
      }
      stack.push_back(c);
    }
  }
  if (seen != td.NumNodes()) {
    return Status::InvalidArgument("tree decomposition is not connected");
  }
  return Status::OK();
}

// The index of the first domain element that occurs in no bag, or `size`.
ElementId FirstUncovered(const Occurrences& occ, size_t size) {
  for (ElementId e = 0; e < size; ++e) {
    if (occ.Nodes(e).empty()) return e;
  }
  return static_cast<ElementId>(size);
}

}  // namespace

Status ValidateConnectedness(const TreeDecomposition& td) {
  TREEDL_RETURN_IF_ERROR(CheckTreeShape(td));
  return Occurrences(td, 0).CheckConnectedness();
}

Status ValidateForStructure(const Structure& structure,
                            const TreeDecomposition& td) {
  TREEDL_RETURN_IF_ERROR(CheckTreeShape(td));
  size_t n = structure.NumElements();
  Occurrences occ(td, n);
  TREEDL_RETURN_IF_ERROR(occ.CheckConnectedness());
  // (1) element coverage.
  if (occ.universe() > n) {
    return Status::InvalidArgument("bag element not in structure domain");
  }
  ElementId uncovered = FirstUncovered(occ, n);
  if (uncovered < n) {
    return Status::InvalidArgument("element not covered by any bag: " +
                                   structure.ElementName(uncovered));
  }
  // (2) fact coverage, relation by relation in insertion order.
  for (PredicateId p = 0; p < structure.signature().size(); ++p) {
    for (const Tuple& args : structure.Relation(p)) {
      if (!occ.SomeBagCovers(td, args)) {
        return Status::InvalidArgument(
            "fact not covered by any bag: predicate " +
            structure.signature().name(p));
      }
    }
  }
  return Status::OK();
}

Status ValidateForGraph(const Graph& graph, const TreeDecomposition& td) {
  TREEDL_RETURN_IF_ERROR(CheckTreeShape(td));
  size_t n = graph.NumVertices();
  Occurrences occ(td, n);
  TREEDL_RETURN_IF_ERROR(occ.CheckConnectedness());
  if (occ.universe() > n) {
    return Status::InvalidArgument("bag element not a graph vertex");
  }
  VertexId uncovered = FirstUncovered(occ, n);
  if (uncovered < n) {
    return Status::InvalidArgument("vertex not covered by any bag: v" +
                                   std::to_string(uncovered));
  }
  // Edges in Graph::Edges() order: by lower endpoint, then insertion order.
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (v < u) continue;
      const ElementId edge[] = {u, v};
      if (!occ.SomeBagCovers(td, edge)) {
        return Status::InvalidArgument("edge not covered by any bag: {v" +
                                       std::to_string(u) + ", v" +
                                       std::to_string(v) + "}");
      }
    }
  }
  return Status::OK();
}

}  // namespace treedl
