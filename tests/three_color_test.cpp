#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algorithms.hpp"
#include "td/heuristics.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

using Problem = Engine::Problem;

StatusOr<Engine::SolveResult> SolveColoring(const Graph& g,
                                            EngineOptions options = {}) {
  return SolveGraph(g, Problem::kThreeColor, std::move(options));
}

StatusOr<uint64_t> CountColorings(const Graph& g) {
  TREEDL_ASSIGN_OR_RETURN(Engine::SolveResult solved,
                          SolveGraph(g, Problem::kThreeColorCount));
  return solved.count;
}

void ExpectProper(const Graph& g, const std::vector<int>& coloring) {
  ASSERT_EQ(coloring.size(), g.NumVertices());
  for (auto [u, v] : g.Edges()) {
    EXPECT_NE(coloring[u], coloring[v]) << "edge {" << u << "," << v << "}";
  }
  for (int c : coloring) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
}

TEST(ThreeColorTest, KnownGraphs) {
  EXPECT_TRUE(SolveColoring(CompleteGraph(3))->feasible);
  EXPECT_FALSE(SolveColoring(CompleteGraph(4))->feasible);
  EXPECT_TRUE(SolveColoring(CycleGraph(5))->feasible);
  EXPECT_TRUE(SolveColoring(CycleGraph(6))->feasible);
  EXPECT_TRUE(SolveColoring(PetersenGraph())->feasible);
  EXPECT_TRUE(SolveColoring(GridGraph(3, 4))->feasible);
  EXPECT_TRUE(SolveColoring(PathGraph(1))->feasible);
  EXPECT_TRUE(SolveColoring(Graph(3))->feasible);  // edgeless
}

TEST(ThreeColorTest, ExtractedColoringsAreProper) {
  for (const Graph& g : {CycleGraph(7), PetersenGraph(), GridGraph(4, 4)}) {
    auto result = SolveColoring(g);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->feasible);
    ASSERT_TRUE(result->witness.has_value());
    ExpectProper(g, *result->witness);
  }
}

TEST(ThreeColorTest, NoWitnessWhenNotRequested) {
  EngineOptions options;
  options.extract_witness = false;
  auto result = SolveColoring(CycleGraph(5), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->feasible);
  EXPECT_FALSE(result->witness.has_value());
}

class ThreeColorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreeColorPropertyTest, MatchesBruteForceOnPartialKTrees) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Partial 4-trees keep enough edges that both outcomes occur across seeds.
  Graph g = RandomPartialKTree(11, 4, 0.85, &rng);
  auto result = SolveColoring(g);
  ASSERT_TRUE(result.ok()) << result.status();
  bool expected = BruteForceColoring(g, 3).has_value();
  EXPECT_EQ(result->feasible, expected);
  if (result->feasible) {
    ASSERT_TRUE(result->witness.has_value());
    ExpectProper(g, *result->witness);
  }
}

TEST_P(ThreeColorPropertyTest, CountMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  Graph g = RandomPartialKTree(9, 3, 0.7, &rng);
  auto count = CountColorings(g);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, CountColoringsBruteForce(g, 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeColorPropertyTest, ::testing::Range(0, 20));

TEST(ThreeColorTest, CountOnKnownGraphs) {
  EXPECT_EQ(CountColorings(CompleteGraph(3)).value(), 6u);
  EXPECT_EQ(CountColorings(CompleteGraph(4)).value(), 0u);
  EXPECT_EQ(CountColorings(PathGraph(3)).value(), 12u);
  EXPECT_EQ(CountColorings(CycleGraph(4)).value(), 18u);
  // Edgeless on n vertices: 3^n.
  EXPECT_EQ(CountColorings(Graph(5)).value(), 243u);
}

TEST(ThreeColorTest, RejectsInvalidDecomposition) {
  Graph g = CycleGraph(4);
  TreeDecomposition bad;
  bad.AddNode({0, 1});  // does not cover all vertices/edges
  EngineOptions options;
  options.decomposition = bad;
  EXPECT_FALSE(SolveColoring(g, options).ok());
}

TEST(ThreeColorTest, WorksWithProvidedDecomposition) {
  Graph g = CycleGraph(6);
  auto td = Decompose(g, TdHeuristic::kMinDegree);
  ASSERT_TRUE(td.ok());
  EngineOptions options;
  options.decomposition = *td;
  RunStats run;
  auto result = SolveGraph(g, Problem::kThreeColor, options, &run);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->feasible);
  EXPECT_GT(run.dp_states, 0u);
}

TEST(ThreeColorTest, DisconnectedGraphs) {
  // Two triangles sharing nothing + an isolated vertex.
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  auto result = SolveColoring(g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->feasible);
  ExpectProper(g, *result->witness);
  EXPECT_EQ(CountColorings(g).value(), 6u * 6u * 3u);
}

}  // namespace
}  // namespace treedl
