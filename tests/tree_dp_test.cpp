#include <gtest/gtest.h>

#include <variant>

#include "core/program_listings.hpp"
#include "core/tree_dp.hpp"
#include "graph/generators.hpp"
#include "td/heuristics.hpp"

#include "test_util.hpp"

namespace treedl::core {
namespace {

// Toy problem exercising every hook: a single "unit" state whose value counts
// the vertices of the subtree (each vertex counted once, at leaves and
// introduces). Copy keeps counts, join adds and subtracts the shared bag.
struct UnitState {
  size_t bag_size = 0;
  bool operator==(const UnitState&) const = default;
  size_t hash() const { return bag_size; }
};

struct CountProblem {
  using State = UnitState;
  using Value = size_t;
  using Node = size_t;  // the bag size

  Node AtNode(const NormNode& node) const { return node.bag.size(); }

  template <typename Emit>
  void Leaf(Node size, const Emit& emit) const {
    emit(UnitState{size}, size);
  }
  template <typename Emit>
  void Introduce(Node size, const State&, const Value& value,
                 const Emit& emit) const {
    emit(UnitState{size}, value + 1);
  }
  template <typename Emit>
  void Forget(Node size, const State&, const Value& value,
              const Emit& emit) const {
    emit(UnitState{size}, value);
  }
  template <typename Emit>
  void Join(Node size, const State&, const Value& va, const State&,
            const Value& vb, const Emit& emit) const {
    emit(UnitState{size}, va + vb - size);
  }
  Value Merge(const Value& a, const Value& b) const {
    // Both derivations must agree for this deterministic problem.
    EXPECT_EQ(a, b);
    return a;
  }
};

TEST(TreeDpTest, CountsVerticesOnRandomDecompositions) {
  Rng rng(TestSeed());
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = RandomPartialKTree(6 + trial, 2, 0.7, &rng);
    auto td = Decompose(g);
    ASSERT_TRUE(td.ok());
    NormalizeOptions options;
    options.ensure_leaf_coverage = trial % 2 == 0;
    options.copy_above_branches = trial % 3 == 0;
    auto ntd = Normalize(*td, options);
    ASSERT_TRUE(ntd.ok());
    MultiDp multi;
    const auto* table = multi.Add(CountProblem{});
    DpStats stats;
    RunTreeDp(*ntd, &multi, DpExec{}, &stats);
    const auto& root = table->at(ntd->root());
    ASSERT_EQ(root.size(), 1u);
    EXPECT_EQ(root.begin()->second, g.NumVertices());
    EXPECT_GT(stats.total_states, 0u);
    EXPECT_GE(stats.max_states_per_node, 1u);
    EXPECT_EQ(stats.traversals, 1u);
    EXPECT_EQ(stats.passes, 1u);
  }
}

TEST(TreeDpTest, SingleNodeDecomposition) {
  TreeDecomposition td;
  td.AddNode({0, 1, 2});
  auto ntd = Normalize(td);
  ASSERT_TRUE(ntd.ok());
  MultiDp multi;
  const auto* table = multi.Add(CountProblem{});
  RunTreeDp(*ntd, &multi);
  EXPECT_EQ(table->at(ntd->root()).begin()->second, 3u);
}

TEST(ProgramListingsTest, ListingsPresent) {
  // The listings are documentation artifacts; sanity-check the key rules.
  const std::string& fig5 = ThreeColorabilityProgramListing();
  EXPECT_NE(fig5.find("solve(s, R, G, B)"), std::string::npos);
  EXPECT_NE(fig5.find("branch node"), std::string::npos);
  EXPECT_NE(fig5.find("success <- root(s)"), std::string::npos);
  const std::string& fig6 = PrimalityProgramListing();
  EXPECT_NE(fig6.find("solve(s, Y, FY, Co, DC, FC)"), std::string::npos);
  EXPECT_NE(fig6.find("unique(DC1, DC2, FC)"), std::string::npos);
  const std::string& enum_listing = MonadicPrimalityProgramListing();
  EXPECT_NE(enum_listing.find("prime(a)"), std::string::npos);
  EXPECT_NE(enum_listing.find("solveDown"), std::string::npos);
}

}  // namespace
}  // namespace treedl::core
