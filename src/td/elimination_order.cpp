#include "td/elimination_order.hpp"

#include <algorithm>

namespace treedl {

namespace {

Status CheckPermutation(const Graph& graph, const std::vector<VertexId>& order) {
  if (order.size() != graph.NumVertices()) {
    return Status::InvalidArgument("elimination order has wrong length");
  }
  std::vector<bool> seen(graph.NumVertices(), false);
  for (VertexId v : order) {
    if (v >= graph.NumVertices() || seen[v]) {
      return Status::InvalidArgument("elimination order is not a permutation");
    }
    seen[v] = true;
  }
  return Status::OK();
}

// Simulates elimination; fills bag-per-vertex (in elimination order, each bag
// sorted) and, for each eliminated vertex, the earliest-later-eliminated
// neighbor (or -1). Adjacency is flat sorted vectors over the live vertices:
// eliminating v removes v from each neighbour's list and merges in the rest
// of N(v), so a step costs O(d · (d + Δ)) for d = |N(v)| and Δ the largest
// neighbour list, with no per-edge allocation.
void SimulateElimination(const Graph& graph, const std::vector<VertexId>& order,
                         std::vector<std::vector<ElementId>>* bags,
                         std::vector<int>* attach_position) {
  size_t n = graph.NumVertices();
  std::vector<std::vector<VertexId>> adj(n);
  for (VertexId v = 0; v < n; ++v) {
    adj[v] = graph.Neighbors(v);
    std::sort(adj[v].begin(), adj[v].end());
  }
  std::vector<int> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = static_cast<int>(i);

  bags->assign(n, {});
  attach_position->assign(n, -1);
  std::vector<VertexId> missing;
  for (size_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    const std::vector<VertexId>& nbrs = adj[v];
    auto& bag = (*bags)[i];
    bag.reserve(nbrs.size() + 1);
    auto split = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    bag.assign(nbrs.begin(), split);
    bag.push_back(v);
    bag.insert(bag.end(), split, nbrs.end());
    int earliest_later = -1;
    for (VertexId u : nbrs) {
      if (earliest_later == -1 || position[u] < earliest_later) {
        earliest_later = position[u];
      }
    }
    (*attach_position)[i] = earliest_later;
    // Clique-ify the neighborhood and remove v.
    for (VertexId a : nbrs) {
      std::vector<VertexId>& list = adj[a];
      list.erase(std::lower_bound(list.begin(), list.end(), v));
      missing.clear();
      for (VertexId b : nbrs) {
        if (b != a && !std::binary_search(list.begin(), list.end(), b)) {
          missing.push_back(b);
        }
      }
      if (missing.empty()) continue;
      // Merge the sorted `missing` into `list` from the back, in place.
      size_t from = list.size();
      size_t take = missing.size();
      list.resize(from + take);
      for (size_t to = list.size(); take > 0;) {
        if (from > 0 && list[from - 1] > missing[take - 1]) {
          list[--to] = list[--from];
        } else {
          list[--to] = missing[--take];
        }
      }
    }
    std::vector<VertexId>().swap(adj[v]);
  }
}

}  // namespace

StatusOr<TreeDecomposition> DecompositionFromOrder(
    const Graph& graph, const std::vector<VertexId>& order) {
  TREEDL_RETURN_IF_ERROR(CheckPermutation(graph, order));
  TreeDecomposition td;
  if (graph.NumVertices() == 0) {
    td.AddNode({});
    return td;
  }
  std::vector<std::vector<ElementId>> bags;
  std::vector<int> attach_position;
  SimulateElimination(graph, order, &bags, &attach_position);

  size_t n = graph.NumVertices();
  // Build top-down: the last-eliminated vertex's bag is the root; the bag of
  // order[i] hangs under the bag of its earliest later-eliminated neighbor
  // (or under the next bag in order for isolated vertices, keeping one tree).
  std::vector<TdNodeId> node_of_position(n, kNoTdNode);
  node_of_position[n - 1] = td.AddNode(std::move(bags[n - 1]));
  for (size_t i = n - 1; i-- > 0;) {
    int parent_pos = attach_position[i];
    if (parent_pos < 0) parent_pos = static_cast<int>(i) + 1;
    node_of_position[i] = td.AddNode(
        std::move(bags[i]), node_of_position[static_cast<size_t>(parent_pos)]);
  }
  return td;
}

StatusOr<int> OrderWidth(const Graph& graph,
                         const std::vector<VertexId>& order) {
  TREEDL_RETURN_IF_ERROR(CheckPermutation(graph, order));
  std::vector<std::vector<ElementId>> bags;
  std::vector<int> attach_position;
  SimulateElimination(graph, order, &bags, &attach_position);
  int width = -1;
  for (const auto& bag : bags) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width;
}

}  // namespace treedl
