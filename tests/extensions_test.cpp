#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algorithms.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

StatusOr<size_t> Optimum(const Graph& g, Engine::Problem problem,
                         EngineOptions options = {}) {
  TREEDL_ASSIGN_OR_RETURN(Engine::SolveResult solved,
                          SolveGraph(g, problem, std::move(options)));
  return solved.optimum;
}

StatusOr<size_t> MinVertexCover(const Graph& g, EngineOptions options = {}) {
  return Optimum(g, Engine::Problem::kVertexCover, std::move(options));
}

StatusOr<size_t> MaxIndependentSet(const Graph& g,
                                   EngineOptions options = {}) {
  return Optimum(g, Engine::Problem::kIndependentSet, std::move(options));
}

StatusOr<size_t> MinDominatingSet(const Graph& g, EngineOptions options = {}) {
  return Optimum(g, Engine::Problem::kDominatingSet, std::move(options));
}

TEST(ExtensionsTest, KnownGraphs) {
  Graph c5 = CycleGraph(5);
  EXPECT_EQ(MinVertexCover(c5).value(), 3u);
  EXPECT_EQ(MaxIndependentSet(c5).value(), 2u);
  EXPECT_EQ(MinDominatingSet(c5).value(), 2u);

  Graph star(6);
  for (VertexId v = 1; v < 6; ++v) star.AddEdge(0, v);
  EXPECT_EQ(MinVertexCover(star).value(), 1u);
  EXPECT_EQ(MaxIndependentSet(star).value(), 5u);
  EXPECT_EQ(MinDominatingSet(star).value(), 1u);

  Graph k4 = CompleteGraph(4);
  EXPECT_EQ(MinVertexCover(k4).value(), 3u);
  EXPECT_EQ(MaxIndependentSet(k4).value(), 1u);
  EXPECT_EQ(MinDominatingSet(k4).value(), 1u);

  Graph edgeless(4);
  EXPECT_EQ(MinVertexCover(edgeless).value(), 0u);
  EXPECT_EQ(MaxIndependentSet(edgeless).value(), 4u);
  EXPECT_EQ(MinDominatingSet(edgeless).value(), 4u);

  EXPECT_EQ(MinVertexCover(PetersenGraph()).value(), 6u);
  EXPECT_EQ(MaxIndependentSet(PetersenGraph()).value(), 4u);
  EXPECT_EQ(MinDominatingSet(PetersenGraph()).value(), 3u);
}

class ExtensionsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExtensionsPropertyTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  Graph g = RandomPartialKTree(11, 3, 0.7, &rng);
  EXPECT_EQ(MinVertexCover(g).value(), MinVertexCoverBruteForce(g));
  EXPECT_EQ(MaxIndependentSet(g).value(), MaxIndependentSetBruteForce(g));
  EXPECT_EQ(MinDominatingSet(g).value(), MinDominatingSetBruteForce(g));
}

TEST_P(ExtensionsPropertyTest, GallaiIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 2);
  Graph g = RandomPartialKTree(16, 3, 0.6, &rng);
  // min VC + max IS = n, checked DP-vs-DP at sizes beyond the brute force.
  EXPECT_EQ(MinVertexCover(g).value() + MaxIndependentSet(g).value(),
            g.NumVertices());
  // DS never exceeds VC on graphs without isolated vertices; with possible
  // isolated vertices only the trivial bound DS <= n holds, so check that.
  EXPECT_LE(MinDominatingSet(g).value(), g.NumVertices());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionsPropertyTest, ::testing::Range(0, 15));

TEST(ExtensionsTest, RejectsInvalidDecomposition) {
  Graph g = CycleGraph(4);
  TreeDecomposition bad;
  bad.AddNode({0});
  EngineOptions options;
  options.decomposition = bad;
  EXPECT_FALSE(MinVertexCover(g, options).ok());
  EXPECT_FALSE(MaxIndependentSet(g, options).ok());
  EXPECT_FALSE(MinDominatingSet(g, options).ok());
}

}  // namespace
}  // namespace treedl
