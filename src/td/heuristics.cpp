#include "td/heuristics.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "graph/gaifman.hpp"
#include "td/elimination_order.hpp"

namespace treedl {

namespace {

// Number of fill edges created by eliminating v given set-based adjacency.
// Its inner loop is most of a cold decomposition. Where the linker happens to
// place the function moves min-fill time by 10-20% between builds of this
// same source (on a 4-core Xeon: fast whenever the entry is 64-byte aligned),
// so the alignment is pinned and a code-size change elsewhere cannot shift it.
[[gnu::aligned(64)]] size_t FillIn(const std::vector<std::set<VertexId>>& adj,
                                   VertexId v) {
  size_t fill = 0;
  std::vector<VertexId> nbrs(adj[v].begin(), adj[v].end());
  for (size_t a = 0; a < nbrs.size(); ++a) {
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      if (!adj[nbrs[a]].count(nbrs[b])) ++fill;
    }
  }
  return fill;
}

std::vector<VertexId> GreedyOrder(const Graph& graph, bool min_fill) {
  size_t n = graph.NumVertices();
  std::vector<std::set<VertexId>> adj(n);
  for (auto [u, v] : graph.Edges()) {
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::vector<bool> eliminated(n, false);
  std::vector<VertexId> order;
  order.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    VertexId best = 0;
    size_t best_score = std::numeric_limits<size_t>::max();
    for (VertexId v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      size_t score = min_fill ? FillIn(adj, v) : adj[v].size();
      if (score < best_score) {
        best_score = score;
        best = v;
      }
    }
    order.push_back(best);
    eliminated[best] = true;
    std::vector<VertexId> nbrs(adj[best].begin(), adj[best].end());
    for (size_t a = 0; a < nbrs.size(); ++a) {
      adj[nbrs[a]].erase(best);
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    adj[best].clear();
  }
  return order;
}

// Min-fill with principled tie-breaking: candidates are compared by
// (fill, current degree, id); when `rng` is non-null, ties on (fill, degree)
// are instead broken uniformly at random — the randomized restarts of the
// multi-start variant.
std::vector<VertexId> TieBrokenMinFillOrder(const Graph& graph, Rng* rng) {
  size_t n = graph.NumVertices();
  std::vector<std::set<VertexId>> adj(n);
  for (auto [u, v] : graph.Edges()) {
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::vector<bool> eliminated(n, false);
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<VertexId> ties;
  for (size_t step = 0; step < n; ++step) {
    VertexId best = 0;
    auto best_score = std::make_pair(std::numeric_limits<size_t>::max(),
                                     std::numeric_limits<size_t>::max());
    ties.clear();
    for (VertexId v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      auto score = std::make_pair(FillIn(adj, v), adj[v].size());
      if (score < best_score) {
        best_score = score;
        best = v;
        ties.clear();
        ties.push_back(v);
      } else if (rng != nullptr && score == best_score) {
        ties.push_back(v);
      }
    }
    if (rng != nullptr && ties.size() > 1) {
      best = ties[rng->UniformIndex(ties.size())];
    }
    order.push_back(best);
    eliminated[best] = true;
    std::vector<VertexId> nbrs(adj[best].begin(), adj[best].end());
    for (size_t a = 0; a < nbrs.size(); ++a) {
      adj[nbrs[a]].erase(best);
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    adj[best].clear();
  }
  return order;
}

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

// (induced width, Σ 3^min(|bag|, 20)) of an order — the same state-count
// model as td::EstimateNodeCost, aggregated over the raw bags, used to rank
// multi-start candidates without normalizing each one.
std::pair<int, uint64_t> OrderQuality(const Graph& graph,
                                      const std::vector<VertexId>& order) {
  StatusOr<TreeDecomposition> td = DecompositionFromOrder(graph, order);
  TREEDL_CHECK(td.ok()) << td.status();
  uint64_t cost = 0;
  for (size_t id = 0; id < td->NumNodes(); ++id) {
    size_t b = std::min<size_t>(td->Bag(static_cast<TdNodeId>(id)).size(), 20);
    uint64_t states = 1;
    for (size_t i = 0; i < b; ++i) states *= 3;
    cost += states;
  }
  return {td->Width(), cost};
}

}  // namespace

std::vector<VertexId> HeuristicOrder(const Graph& graph,
                                     TdHeuristic heuristic) {
  switch (heuristic) {
    case TdHeuristic::kMinDegree:
      return GreedyOrder(graph, /*min_fill=*/false);
    case TdHeuristic::kMinFill:
      return GreedyOrder(graph, /*min_fill=*/true);
    case TdHeuristic::kMcs:
      return McsOrder(graph);
    case TdHeuristic::kMinFillTieBreak:
      return TieBrokenMinFillOrder(graph, /*rng=*/nullptr);
  }
  TREEDL_CHECK(false) << "unknown heuristic";
  return {};
}

std::vector<VertexId> MinFillMultiStartOrder(const Graph& graph,
                                             const MultiStartOptions& options) {
  TREEDL_CHECK(graph.NumVertices() > 0);
  std::vector<VertexId> best = TieBrokenMinFillOrder(graph, nullptr);
  std::pair<int, uint64_t> best_quality = OrderQuality(graph, best);
  for (size_t start = 1; start < options.starts; ++start) {
    // One independent deterministic stream per restart (golden-ratio step).
    Rng rng(options.seed + start * 0x9E3779B97F4A7C15ULL);
    std::vector<VertexId> candidate = TieBrokenMinFillOrder(graph, &rng);
    std::pair<int, uint64_t> quality = OrderQuality(graph, candidate);
    if (quality < best_quality) {
      best_quality = quality;
      best = std::move(candidate);
    }
  }
  return best;
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
