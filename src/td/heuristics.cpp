#include "td/heuristics.hpp"

#include <algorithm>
#include <compare>
#include <limits>
#include <set>
#include <utility>

#include "common/logging.hpp"
#include "graph/gaifman.hpp"
#include "td/elimination_order.hpp"

namespace treedl {

namespace {

// Greedy elimination for kMinDegree, kMinFill and kMinFillTieBreak. Each
// step eliminates the live vertex with the smallest (score, id), where the
// score is the current degree, the fill, or (fill, current degree)
// respectively; among equal scores the lowest id goes first.
//
// Adjacency is flat sorted vectors over the live vertices, and fill counts
// stay exact at every step without rescanning the graph: eliminating v only
// changes the scores of N(v) and of the common neighbours of the fill edges
// it adds, and those are updated by deltas. Membership and intersection
// tests iterate the shorter list and binary-search the longer one, so
// high-degree hubs are never scanned.
class Eliminator {
 public:
  Eliminator(const Graph& graph, TdHeuristic heuristic)
      : heuristic_(heuristic), adj_(graph.NumVertices()),
        key_(graph.NumVertices()) {
    TREEDL_CHECK(heuristic != TdHeuristic::kMcs);
    size_t n = graph.NumVertices();
    for (VertexId v = 0; v < n; ++v) {
      adj_[v] = graph.Neighbors(v);
      std::sort(adj_[v].begin(), adj_[v].end());
    }
    if (TracksFill()) {
      // fill(v) = C(deg v, 2) - #edges inside N(v); each edge {u, w} lies in
      // the neighbourhoods of |N(u) ∩ N(w)| vertices, and summing the
      // intersections over the edges at v counts each inner edge twice.
      std::vector<size_t> twice_inner(n, 0);
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId w : adj_[u]) {
          if (w < u) continue;
          size_t common = CountCommon(u, w);
          twice_inner[u] += common;
          twice_inner[w] += common;
        }
      }
      fill_.resize(n);
      for (VertexId v = 0; v < n; ++v) {
        size_t d = adj_[v].size();
        fill_[v] = (d < 2 ? 0 : d * (d - 1) / 2) - twice_inner[v] / 2;
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      key_[v] = KeyOf(v);
      queue_.insert(key_[v]);
    }
  }

  // Eliminates every vertex, smallest (score, id) first; returns the order.
  std::vector<VertexId> Run() {
    std::vector<VertexId> order;
    order.reserve(adj_.size());
    while (!queue_.empty()) {
      VertexId v = queue_.begin()->id;
      queue_.erase(queue_.begin());
      order.push_back(v);
      Eliminate(v);
      Requeue();
    }
    return order;
  }

 private:
  struct Key {
    size_t primary;
    size_t secondary;
    VertexId id;
    auto operator<=>(const Key&) const = default;
  };

  bool TracksFill() const { return heuristic_ != TdHeuristic::kMinDegree; }

  Key KeyOf(VertexId v) const {
    size_t degree = adj_[v].size();
    switch (heuristic_) {
      case TdHeuristic::kMinDegree:
        return {degree, 0, v};
      case TdHeuristic::kMinFill:
        return {fill_[v], 0, v};
      default:
        return {fill_[v], degree, v};
    }
  }

  // Calls `visit` on each vertex adjacent to both `a` and `b`.
  template <typename Visit>
  void ForEachCommon(VertexId a, VertexId b, Visit visit) const {
    if (adj_[a].size() > adj_[b].size()) std::swap(a, b);
    const std::vector<VertexId>& longer = adj_[b];
    for (VertexId w : adj_[a]) {
      if (std::binary_search(longer.begin(), longer.end(), w)) visit(w);
    }
  }

  size_t CountCommon(VertexId a, VertexId b) const {
    size_t common = 0;
    ForEachCommon(a, b, [&](VertexId) { ++common; });
    return common;
  }

  bool Adjacent(VertexId a, VertexId b) const {
    if (adj_[a].size() > adj_[b].size()) std::swap(a, b);
    return std::binary_search(adj_[a].begin(), adj_[a].end(), b);
  }

  // Removes v and turns N(v) into a clique, keeping every fill count exact.
  void Eliminate(VertexId v) {
    std::vector<VertexId> nbrs = std::move(adj_[v]);
    adj_[v].clear();
    // Each x in N(v) loses the pairs {v, y} with y in N(x) \ N[v].
    for (VertexId x : nbrs) {
      std::vector<VertexId>& ax = adj_[x];
      ax.erase(std::lower_bound(ax.begin(), ax.end(), v));
      if (TracksFill()) {
        size_t in_nbrs = 0;
        for (VertexId y : nbrs) {
          if (y != x && Adjacent(x, y)) ++in_nbrs;
        }
        fill_[x] -= ax.size() - in_nbrs;
      }
      dirty_.push_back(x);
    }
    // Each fill edge {x, y} closes the pair {x, y} for every common
    // neighbour, and opens the pairs {y, z} (z in N(x) \ N(y)) at x and
    // symmetrically at y.
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        VertexId x = nbrs[a], y = nbrs[b];
        if (Adjacent(x, y)) continue;
        if (TracksFill()) {
          size_t common = 0;
          ForEachCommon(x, y, [&](VertexId w) {
            --fill_[w];
            dirty_.push_back(w);
            ++common;
          });
          fill_[x] += adj_[x].size() - common;
          fill_[y] += adj_[y].size() - common;
        }
        adj_[x].insert(std::lower_bound(adj_[x].begin(), adj_[x].end(), y), y);
        adj_[y].insert(std::lower_bound(adj_[y].begin(), adj_[y].end(), x), x);
      }
    }
  }

  // Moves every vertex whose score changed to its new queue position (a
  // vertex listed twice is found in place the second time).
  void Requeue() {
    for (VertexId w : dirty_) {
      Key key = KeyOf(w);
      if (key != key_[w]) {
        queue_.erase(key_[w]);
        queue_.insert(key);
        key_[w] = key;
      }
    }
    dirty_.clear();
  }

  TdHeuristic heuristic_;
  std::vector<std::vector<VertexId>> adj_;  // live neighbours, sorted
  std::vector<size_t> fill_;                // unused for kMinDegree
  std::vector<Key> key_;                    // each live vertex's queue key
  std::set<Key> queue_;
  std::vector<VertexId> dirty_;  // vertices whose score may have changed
};

// Maximum cardinality search: repeatedly pick the vertex with the most
// already-visited neighbors; the *reverse* of the visit order is used as the
// elimination order (exact on chordal graphs).
std::vector<VertexId> McsOrder(const Graph& graph) {
  size_t n = graph.NumVertices();
  std::vector<int> weight(n, 0);
  std::vector<bool> visited(n, false);
  std::vector<VertexId> visit_order;
  visit_order.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    int best_weight = -1;
    VertexId best = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (!visited[v] && weight[v] > best_weight) {
        best_weight = weight[v];
        best = v;
      }
    }
    visited[best] = true;
    visit_order.push_back(best);
    for (VertexId u : graph.Neighbors(best)) {
      if (!visited[u]) ++weight[u];
    }
  }
  std::reverse(visit_order.begin(), visit_order.end());
  return visit_order;
}

}  // namespace

std::vector<VertexId> HeuristicOrder(const Graph& graph,
                                     TdHeuristic heuristic) {
  switch (heuristic) {
    case TdHeuristic::kMinDegree:
    case TdHeuristic::kMinFill:
    case TdHeuristic::kMinFillTieBreak:
      return Eliminator(graph, heuristic).Run();
    case TdHeuristic::kMcs:
      return McsOrder(graph);
  }
  TREEDL_CHECK(false) << "unknown heuristic";
  return {};
}

StatusOr<TreeDecomposition> Decompose(const Graph& graph,
                                      TdHeuristic heuristic) {
  if (graph.NumVertices() == 0) {
    return Status::InvalidArgument("cannot decompose the empty graph");
  }
  return DecompositionFromOrder(graph, HeuristicOrder(graph, heuristic));
}

StatusOr<TreeDecomposition> DecomposeStructure(const Structure& structure,
                                               TdHeuristic heuristic) {
  if (structure.NumElements() == 0) {
    return Status::InvalidArgument("cannot decompose the empty structure");
  }
  return Decompose(GaifmanGraph(structure), heuristic);
}

StatusOr<int> ExactTreewidth(const Graph& graph) {
  size_t n = graph.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (n > 20) {
    return Status::OutOfRange("exact treewidth limited to 20 vertices");
  }
  // f(S) = best achievable max-bag-minus-one when the vertex set S (bitmask)
  // is eliminated first, in some order. Transition: last vertex v of the
  // prefix costs q(S \ {v}, v) = |neighbors of v reachable via S \ {v}|.
  size_t full = size_t{1} << n;
  std::vector<int8_t> f(full, 0);
  auto q = [&](uint64_t through, VertexId v) -> int {
    // BFS from v, travelling only through vertices in `through`; count
    // reached vertices outside `through` (excluding v itself).
    uint64_t seen = uint64_t{1} << v;
    std::vector<VertexId> stack{v};
    int count = 0;
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      for (VertexId w : graph.Neighbors(u)) {
        if (seen & (uint64_t{1} << w)) continue;
        seen |= uint64_t{1} << w;
        if (through & (uint64_t{1} << w)) {
          stack.push_back(w);
        } else {
          ++count;
        }
      }
    }
    return count;
  };
  f[0] = -1;
  for (uint64_t s = 1; s < full; ++s) {
    int best = std::numeric_limits<int>::max();
    uint64_t rest = s;
    while (rest) {
      int v = __builtin_ctzll(rest);
      rest &= rest - 1;
      uint64_t prev = s & ~(uint64_t{1} << v);
      int cost = std::max(static_cast<int>(f[prev]),
                          q(prev, static_cast<VertexId>(v)));
      best = std::min(best, cost);
    }
    f[s] = static_cast<int8_t>(best);
  }
  return static_cast<int>(f[full - 1]);
}

}  // namespace treedl
