// Differential oracle for the greedy elimination heuristics.
//
// The library's min-degree / min-fill orders come from an incremental
// eliminator that maintains fill counts by deltas. Session fingerprints,
// server transcripts and the bench baselines are pinned to the orders of the
// original rescan implementation, which recomputed every live vertex's score
// at every step over std::set adjacency. That implementation is kept here
// as the reference, verbatim apart from a code-alignment attribute on FillIn
// that only affected its speed: every heuristic must reproduce its orders
// exactly (same vertices, same tie-breaks) on every family below.
//
// The second reference is the std::set elimination simulation that
// DecompositionFromOrder and OrderWidth ran before they moved to flat sorted
// adjacency: for every heuristic order and for random permutations, the
// library must build byte-identical bags, parents, children and root, and
// report the same width.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "schema/encode.hpp"
#include "schema/generators.hpp"
#include "td/elimination_order.hpp"
#include "td/heuristics.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

// ---------------------------------------------------------------------------
// The reference: the rescan heuristics as they were before the incremental
// eliminator replaced them.
// ---------------------------------------------------------------------------

// Number of fill edges created by eliminating v given set-based adjacency.
size_t FillIn(const std::vector<std::set<VertexId>>& adj, VertexId v) {
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
// (fill, current degree, id).
std::vector<VertexId> TieBrokenMinFillOrder(const Graph& graph) {
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
    auto best_score = std::make_pair(std::numeric_limits<size_t>::max(),
                                     std::numeric_limits<size_t>::max());
    for (VertexId v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      auto score = std::make_pair(FillIn(adj, v), adj[v].size());
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

// The elimination simulation over std::set adjacency, as
// DecompositionFromOrder ran it: bag i is {order[i]} ∪ its current
// neighbours, and hangs under the bag of its earliest later-eliminated
// neighbour (or the next bag, for a vertex with no later neighbour).
struct OracleBuild {
  std::vector<std::vector<ElementId>> bags;  // by elimination position
  std::vector<int> attach_position;
};

OracleBuild SimulateEliminationOracle(const Graph& graph,
                                      const std::vector<VertexId>& order) {
  size_t n = graph.NumVertices();
  std::vector<std::set<VertexId>> adj(n);
  for (auto [u, v] : graph.Edges()) {
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::vector<int> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = static_cast<int>(i);

  OracleBuild out;
  out.bags.assign(n, {});
  out.attach_position.assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    std::vector<VertexId> nbrs(adj[v].begin(), adj[v].end());
    auto& bag = out.bags[i];
    bag.push_back(v);
    int earliest_later = -1;
    for (VertexId u : nbrs) {
      bag.push_back(u);
      if (earliest_later == -1 || position[u] < earliest_later) {
        earliest_later = position[u];
      }
    }
    out.attach_position[i] = earliest_later;
    for (size_t a = 0; a < nbrs.size(); ++a) {
      adj[nbrs[a]].erase(v);
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    adj[v].clear();
  }
  return out;
}

TreeDecomposition DecompositionFromOrderOracle(
    const Graph& graph, const std::vector<VertexId>& order) {
  TreeDecomposition td;
  size_t n = graph.NumVertices();
  if (n == 0) {
    td.AddNode({});
    return td;
  }
  OracleBuild build = SimulateEliminationOracle(graph, order);
  std::vector<TdNodeId> node_of_position(n, kNoTdNode);
  node_of_position[n - 1] = td.AddNode(build.bags[n - 1]);
  for (size_t i = n - 1; i-- > 0;) {
    int parent_pos = build.attach_position[i];
    if (parent_pos < 0) parent_pos = static_cast<int>(i) + 1;
    node_of_position[i] = td.AddNode(
        build.bags[i], node_of_position[static_cast<size_t>(parent_pos)]);
  }
  return td;
}

int OrderWidthOracle(const Graph& graph, const std::vector<VertexId>& order) {
  int width = -1;
  for (const auto& bag : SimulateEliminationOracle(graph, order).bags) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width;
}

// ---------------------------------------------------------------------------
// Graph families.
// ---------------------------------------------------------------------------

Graph StarGraph(size_t leaves) {
  Graph g(leaves + 1);
  for (VertexId v = 1; v <= leaves; ++v) g.AddEdge(0, v);
  return g;
}

Graph DisjointUnion(const std::vector<Graph>& parts) {
  Graph g;
  for (const Graph& part : parts) {
    VertexId offset = static_cast<VertexId>(g.NumVertices());
    for (size_t i = 0; i < part.NumVertices(); ++i) g.AddVertex();
    for (auto [u, v] : part.Edges()) g.AddEdge(u + offset, v + offset);
  }
  return g;
}

// The same graph under a random vertex relabeling, so lowest-id tie-breaks
// land on different vertices than the generators' construction order.
Graph Relabeled(const Graph& graph, Rng* rng) {
  std::vector<VertexId> label(graph.NumVertices());
  for (size_t i = 0; i < label.size(); ++i) label[i] = static_cast<VertexId>(i);
  rng->Shuffle(&label);
  Graph g(graph.NumVertices());
  for (auto [u, v] : graph.Edges()) g.AddEdge(label[u], label[v]);
  return g;
}

Graph SchemaGaifman(const Schema& schema) {
  return GaifmanGraph(EncodeSchema(schema).structure);
}

// The fixed families every heuristic must agree on.
std::vector<std::pair<std::string, Graph>> StructuredGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("edgeless-1", Graph(1));
  graphs.emplace_back("edgeless-7", Graph(7));
  graphs.emplace_back("path-12", PathGraph(12));
  graphs.emplace_back("cycle-9", CycleGraph(9));
  graphs.emplace_back("complete-7", CompleteGraph(7));
  graphs.emplace_back("star-15", StarGraph(15));
  graphs.emplace_back("grid-5x6", GridGraph(5, 6));
  graphs.emplace_back("grid-7x7", GridGraph(7, 7));
  graphs.emplace_back("petersen", PetersenGraph());
  graphs.emplace_back("union-path-cycle-k5-star",
                      DisjointUnion({PathGraph(6), CycleGraph(5),
                                     CompleteGraph(5), StarGraph(4)}));
  graphs.emplace_back("union-grids-isolated",
                      DisjointUnion({GridGraph(3, 4), Graph(3), GridGraph(4, 3),
                                     PetersenGraph()}));
  return graphs;
}

// Asserts that every heuristic's order equals the reference's on `graph`.
void ExpectOrdersMatchOracle(const Graph& graph, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(HeuristicOrder(graph, TdHeuristic::kMinDegree),
            GreedyOrder(graph, /*min_fill=*/false));
  EXPECT_EQ(HeuristicOrder(graph, TdHeuristic::kMinFill),
            GreedyOrder(graph, /*min_fill=*/true));
  EXPECT_EQ(HeuristicOrder(graph, TdHeuristic::kMinFillTieBreak),
            TieBrokenMinFillOrder(graph));
}

// Asserts that DecompositionFromOrder and OrderWidth reproduce the std::set
// simulation on `order`: same nodes, bags, parents, children and root.
void ExpectBuildMatchesOracle(const Graph& graph,
                              const std::vector<VertexId>& order,
                              const std::string& label) {
  SCOPED_TRACE(label);
  auto built = DecompositionFromOrder(graph, order);
  ASSERT_TRUE(built.ok()) << built.status();
  TreeDecomposition want = DecompositionFromOrderOracle(graph, order);
  ASSERT_EQ(built->NumNodes(), want.NumNodes());
  EXPECT_EQ(built->root(), want.root());
  for (size_t i = 0; i < want.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    ASSERT_EQ(built->Bag(id), want.Bag(id)) << "node " << i;
    ASSERT_EQ(built->node(id).parent, want.node(id).parent) << "node " << i;
    ASSERT_EQ(built->node(id).children, want.node(id).children)
        << "node " << i;
  }
  auto width = OrderWidth(graph, order);
  ASSERT_TRUE(width.ok()) << width.status();
  EXPECT_EQ(*width, OrderWidthOracle(graph, order));
}

// Every heuristic's order plus `permutations` random orders of `graph`.
void ExpectBuildsMatchOracle(const Graph& graph, const std::string& label,
                             Rng* rng, int permutations = 3) {
  for (TdHeuristic h : {TdHeuristic::kMinDegree, TdHeuristic::kMinFill,
                        TdHeuristic::kMcs, TdHeuristic::kMinFillTieBreak}) {
    ExpectBuildMatchesOracle(graph, HeuristicOrder(graph, h),
                             label + " heuristic " +
                                 std::to_string(static_cast<int>(h)));
  }
  std::vector<VertexId> order(graph.NumVertices());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<VertexId>(i);
  for (int r = 0; r < permutations; ++r) {
    rng->Shuffle(&order);
    ExpectBuildMatchesOracle(graph, order,
                             label + " permutation " + std::to_string(r));
  }
}

TEST(HeuristicsOracleTest, StructuredFamiliesMatch) {
  for (const auto& [label, graph] : StructuredGraphs()) {
    ExpectOrdersMatchOracle(graph, label);
  }
  EXPECT_TRUE(HeuristicOrder(Graph(0), TdHeuristic::kMinFill).empty());
}

TEST(HeuristicsOracleTest, GnpGraphsMatch) {
  Rng rng(TestSeed());
  for (double p : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    for (size_t n : {8, 20, 40}) {
      Graph g = RandomGnp(n, p, &rng);
      std::string label = "gnp n=" + std::to_string(n) +
                          " p=" + std::to_string(p);
      ExpectOrdersMatchOracle(g, label);
    }
  }
}

TEST(HeuristicsOracleTest, PartialKTreesMatch) {
  Rng rng(TestSeed());
  for (int k = 1; k <= 6; ++k) {
    for (size_t n : {30, 80, 150}) {
      for (double keep : {0.5, 0.8}) {
        Graph g = RandomPartialKTree(n, k, keep, &rng);
        std::string label = "partial " + std::to_string(k) + "-tree n=" +
                            std::to_string(n) + " keep=" + std::to_string(keep);
        ExpectOrdersMatchOracle(g, label);
        ExpectOrdersMatchOracle(Relabeled(g, &rng), label + " relabeled");
      }
    }
  }
}

// A few large instances: hubs of degree ~n/4 and long runs of equal scores.
TEST(HeuristicsOracleTest, LargePartialKTreesMatch) {
  Rng rng(TestSeed());
  for (int k : {1, 4, 6}) {
    Graph g = Relabeled(RandomPartialKTree(500, k, 0.6, &rng), &rng);
    SCOPED_TRACE("partial " + std::to_string(k) + "-tree n=500 relabeled");
    EXPECT_EQ(HeuristicOrder(g, TdHeuristic::kMinFill),
              GreedyOrder(g, /*min_fill=*/true));
    EXPECT_EQ(HeuristicOrder(g, TdHeuristic::kMinDegree),
              GreedyOrder(g, /*min_fill=*/false));
  }
  Graph g = RandomPartialKTree(300, 5, 0.6, &rng);
  EXPECT_EQ(HeuristicOrder(g, TdHeuristic::kMinFillTieBreak),
            TieBrokenMinFillOrder(g));
}

TEST(HeuristicsOracleTest, SchemaGaifmanGraphsMatch) {
  Rng rng(TestSeed());
  for (int attributes : {20, 60, 120}) {
    Graph g = SchemaGaifman(
        RandomWindowSchema(attributes, 2 * attributes / 3, 5, &rng));
    std::string label = "window schema n=" + std::to_string(attributes);
    ExpectOrdersMatchOracle(g, label);
  }
  for (int fds : {7, 40, 100}) {
    Graph g = SchemaGaifman(GenerateBalancedInstance(fds).schema);
    std::string label = "balanced schema fds=" + std::to_string(fds);
    ExpectOrdersMatchOracle(g, label);
  }
}

TEST(DecompositionFromOrderOracleTest, StructuredFamiliesMatch) {
  Rng rng(TestSeed());
  ExpectBuildMatchesOracle(Graph(0), {}, "empty");
  for (const auto& [label, graph] : StructuredGraphs()) {
    ExpectBuildsMatchOracle(graph, label, &rng);
  }
}

TEST(DecompositionFromOrderOracleTest, GnpGraphsMatch) {
  Rng rng(TestSeed());
  for (double p : {0.05, 0.2, 0.5, 0.9}) {
    for (size_t n : {8, 20, 40}) {
      ExpectBuildsMatchOracle(RandomGnp(n, p, &rng),
                              "gnp n=" + std::to_string(n) +
                                  " p=" + std::to_string(p),
                              &rng);
    }
  }
}

TEST(DecompositionFromOrderOracleTest, PartialKTreesMatch) {
  Rng rng(TestSeed());
  for (int k = 1; k <= 6; ++k) {
    for (size_t n : {30, 150, 400}) {
      Graph g = Relabeled(RandomPartialKTree(n, k, 0.6, &rng), &rng);
      ExpectBuildsMatchOracle(g,
                              "partial " + std::to_string(k) + "-tree n=" +
                                  std::to_string(n),
                              &rng, /*permutations=*/n > 200 ? 1 : 3);
    }
  }
}

TEST(DecompositionFromOrderOracleTest, SchemaGaifmanGraphsMatch) {
  Rng rng(TestSeed());
  for (int attributes : {20, 60, 120}) {
    ExpectBuildsMatchOracle(
        SchemaGaifman(
            RandomWindowSchema(attributes, 2 * attributes / 3, 5, &rng)),
        "window schema n=" + std::to_string(attributes), &rng);
  }
  for (int fds : {7, 40, 100}) {
    ExpectBuildsMatchOracle(
        SchemaGaifman(GenerateBalancedInstance(fds).schema),
        "balanced schema fds=" + std::to_string(fds), &rng);
  }
}

}  // namespace
}  // namespace treedl
