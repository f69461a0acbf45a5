#include <gtest/gtest.h>

#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "structure/structure_io.hpp"
#include "td/elimination_order.hpp"
#include "td/heuristics.hpp"
#include "td/td_io.hpp"
#include "td/tree_decomposition.hpp"
#include "td/validate.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

Structure PaperStructure() {
  auto parsed = ParseStructure(Signature::SchemaSignature(),
                               "att(a). att(b). att(c). att(d). att(e). att(g).\n"
                               "fd(f1). fd(f2). fd(f3). fd(f4). fd(f5).\n"
                               "lh(a, f1). lh(b, f1). lh(c, f2). lh(c, f3).\n"
                               "lh(d, f3). lh(d, f4). lh(e, f4). lh(g, f5).\n"
                               "rh(c, f1). rh(b, f2). rh(e, f3). rh(g, f4).\n"
                               "rh(e, f5).\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return std::move(parsed).value();
}

// Figure 1's tree decomposition of the running example, width 2.
TreeDecomposition PaperFigure1Td(const Structure& s) {
  auto el = [&](const char* name) { return s.ElementByName(name).value(); };
  TreeDecomposition td;
  TdNodeId root = td.AddNode({el("f3"), el("d"), el("e")});
  TdNodeId n_f4 = td.AddNode({el("d"), el("e"), el("f4")}, root);
  TdNodeId n_f5 = td.AddNode({el("e"), el("f4"), el("f5")}, n_f4);
  td.AddNode({el("f4"), el("f5"), el("g")}, n_f5);
  TdNodeId n_c = td.AddNode({el("c"), el("f3")}, root);
  TdNodeId n_cf1 = td.AddNode({el("c"), el("f1"), el("f2")}, n_c);
  TdNodeId n_bf1 = td.AddNode({el("b"), el("f1"), el("f2")}, n_cf1);
  td.AddNode({el("a"), el("b"), el("f1")}, n_bf1);
  return td;
}

TEST(TreeDecompositionTest, WidthAndAccessors) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  EXPECT_EQ(td.NumNodes(), 8u);
  EXPECT_EQ(td.Width(), 2);  // the paper's Fig. 1 decomposition is optimal
  EXPECT_TRUE(td.BagContains(td.root(), s.ElementByName("d").value()));
}

TEST(TreeDecompositionTest, PaperFigure1IsValid) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  EXPECT_TRUE(ValidateForStructure(s, td).ok());
}

TEST(TreeDecompositionTest, PreAndPostOrderAreConsistent) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  auto pre = td.PreOrder();
  ASSERT_EQ(pre.size(), td.NumNodes());
  EXPECT_EQ(pre.front(), td.root());
  std::vector<bool> seen(td.NumNodes(), false);
  for (TdNodeId id : pre) {
    TdNodeId p = td.node(id).parent;
    if (p != kNoTdNode) {
      EXPECT_TRUE(seen[static_cast<size_t>(p)]);
    }
    seen[static_cast<size_t>(id)] = true;
  }
  auto post = td.PostOrder();
  EXPECT_EQ(post.back(), td.root());
}

TEST(TreeDecompositionTest, ReRootPreservesValidity) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TreeDecomposition copy = PaperFigure1Td(s);
    ASSERT_TRUE(copy.ReRoot(static_cast<TdNodeId>(i)).ok());
    EXPECT_EQ(copy.root(), static_cast<TdNodeId>(i));
    EXPECT_TRUE(ValidateForStructure(s, copy).ok()) << "rooted at " << i;
    EXPECT_EQ(copy.Width(), 2);
  }
}

TEST(TreeDecompositionTest, ReRootRejectsBadId) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  EXPECT_FALSE(td.ReRoot(99).ok());
}

TEST(ValidateTest, DetectsMissingElement) {
  Structure s = PaperStructure();
  TreeDecomposition td;
  td.AddNode({0, 1});  // covers almost nothing
  Status st = ValidateForStructure(s, td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, DetectsUncoveredFact) {
  // Elements all covered, but lh(a, f1) has no common bag.
  auto parsed = ParseStructure(Signature::SchemaSignature(),
                               "att(a). fd(f1). lh(a, f1). rh(a, f1).");
  ASSERT_TRUE(parsed.ok());
  TreeDecomposition td;
  TdNodeId r = td.AddNode({parsed->ElementByName("a").value()});
  td.AddNode({parsed->ElementByName("f1").value()}, r);
  Status st = ValidateForStructure(*parsed, td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("fact"), std::string::npos);
}

TEST(ValidateTest, DetectsConnectednessViolation) {
  // Element 0 occurs in two bags separated by a bag without it.
  Graph g = PathGraph(3);
  TreeDecomposition td;
  TdNodeId a = td.AddNode({0, 1});
  TdNodeId b = td.AddNode({1, 2}, a);
  td.AddNode({0, 2}, b);  // 0 reappears: not a subtree
  Status st = ValidateForGraph(g, td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("connectedness"), std::string::npos);
}

TEST(ValidateTest, ConnectednessNamesTheLowestViolatingElement) {
  // Elements 5 and 2 both reappear below a bag without them; 5 is met first
  // in every bag, and the error names 2.
  TreeDecomposition td;
  TdNodeId root = td.AddNode({0, 1, 2, 3, 5});
  TdNodeId mid = td.AddNode({3, 4}, root);
  td.AddNode({2, 4, 5}, mid);
  const std::string want =
      "connectedness violated for element id 2: 2 occurrences, 0 parent links";
  EXPECT_EQ(ValidateConnectedness(td).message(), want);
  EXPECT_EQ(ValidateForGraph(Graph(6), td).message(), want);

  // Ids far beyond any domain are still checked, and named exactly.
  TreeDecomposition wide;
  TdNodeId r = wide.AddNode({7, 4000000000u});
  TdNodeId m = wide.AddNode({7}, r);
  wide.AddNode({7, 4000000000u, 4000000001u}, m);
  Status st = ValidateConnectedness(wide);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "connectedness violated for element id 4000000000: 2 "
            "occurrences, 0 parent links");
  // Connectedness is checked before the domain.
  EXPECT_EQ(ValidateForGraph(Graph(8), wide).message(), st.message());
}

TEST(SubtreeTest, SubtreeAndEnvelopePartitionNodes) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId t = static_cast<TdNodeId>(i);
    auto sub = SubtreeNodes(td, t);
    auto env = EnvelopeNodes(td, t);
    // |T_t| + |T̄_t| = |T| + 1 (t counted in both).
    EXPECT_EQ(sub.size() + env.size(), td.NumNodes() + 1);
  }
}

TEST(SubtreeTest, InducedStructuresMatchFigure3) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  // Node with bag {c, f3}: subtree holds the a/b/c/f1/f2 part, the envelope
  // holds the d/e/g/f3/f4/f5 part (plus c, f3 in both).
  TdNodeId n_c = kNoTdNode;
  ElementId c = s.ElementByName("c").value();
  ElementId f3 = s.ElementByName("f3").value();
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    if (td.Bag(static_cast<TdNodeId>(i)) ==
        std::vector<ElementId>{std::min(c, f3), std::max(c, f3)}) {
      n_c = static_cast<TdNodeId>(i);
    }
  }
  ASSERT_NE(n_c, kNoTdNode);
  std::vector<ElementId> bag;
  Structure down = InducedStructure(s, td, n_c, /*envelope=*/false, &bag);
  EXPECT_EQ(down.NumElements(), 6u);  // a, b, c, f1, f2, f3
  EXPECT_TRUE(down.HasElementNamed("a"));
  EXPECT_FALSE(down.HasElementNamed("g"));
  EXPECT_EQ(bag.size(), 2u);
  Structure up = InducedStructure(s, td, n_c, /*envelope=*/true, &bag);
  EXPECT_EQ(up.NumElements(), 7u);  // c, d, e, g, f3, f4, f5
  EXPECT_TRUE(up.HasElementNamed("g"));
  EXPECT_FALSE(up.HasElementNamed("a"));
}

TEST(EliminationTest, OrderWidthMatchesDecomposition) {
  Rng rng(TestSeed());
  Graph g = RandomPartialKTree(14, 3, 0.7, &rng);
  std::vector<VertexId> order = HeuristicOrder(g, TdHeuristic::kMinFill);
  auto width = OrderWidth(g, order);
  ASSERT_TRUE(width.ok());
  auto td = DecompositionFromOrder(g, order);
  ASSERT_TRUE(td.ok());
  EXPECT_EQ(td->Width(), *width);
  EXPECT_TRUE(ValidateForGraph(g, *td).ok());
}

TEST(EliminationTest, RejectsNonPermutations) {
  Graph g = PathGraph(3);
  EXPECT_FALSE(DecompositionFromOrder(g, {0, 1}).ok());
  EXPECT_FALSE(DecompositionFromOrder(g, {0, 1, 1}).ok());
  EXPECT_FALSE(DecompositionFromOrder(g, {0, 1, 7}).ok());
}

TEST(HeuristicsTest, KnownWidths) {
  // Heuristics are exact on these families.
  EXPECT_EQ(Decompose(PathGraph(10))->Width(), 1);
  EXPECT_EQ(Decompose(CycleGraph(8))->Width(), 2);
  EXPECT_EQ(Decompose(CompleteGraph(5))->Width(), 4);
  EXPECT_EQ(Decompose(Graph(3))->Width(), 0);  // edgeless
}

TEST(HeuristicsTest, AllHeuristicsProduceValidDecompositions) {
  Rng rng(TestSeed());
  for (TdHeuristic h :
       {TdHeuristic::kMinDegree, TdHeuristic::kMinFill, TdHeuristic::kMcs}) {
    Graph g = RandomPartialKTree(20, 3, 0.6, &rng);
    auto td = Decompose(g, h);
    ASSERT_TRUE(td.ok());
    EXPECT_TRUE(ValidateForGraph(g, *td).ok());
    EXPECT_GE(td->Width(), 0);
  }
}

TEST(HeuristicsTest, PartialKTreeWidthBounded) {
  Rng rng(TestSeed());
  // Min-fill on a full k-tree recovers width k exactly; partial stays <= k
  // most of the time (guaranteed: treewidth <= k, heuristic may overshoot on
  // the partial graph, so only assert on the full k-tree).
  for (int k : {1, 2, 3, 4}) {
    Graph g = RandomKTree(18, k, &rng);
    auto td = Decompose(g, TdHeuristic::kMinFill);
    ASSERT_TRUE(td.ok());
    EXPECT_EQ(td->Width(), k);
  }
}

TEST(HeuristicsTest, StructureDecompositionPaperExampleWidthTwo) {
  Structure s = PaperStructure();
  auto td = DecomposeStructure(s);
  ASSERT_TRUE(td.ok());
  EXPECT_TRUE(ValidateForStructure(s, *td).ok());
  // Ex 2.2 proves tw = 2 for this structure; min-fill finds it.
  EXPECT_EQ(td->Width(), 2);
}

TEST(ExactTreewidthTest, KnownValues) {
  EXPECT_EQ(ExactTreewidth(PathGraph(6)).value(), 1);
  EXPECT_EQ(ExactTreewidth(CycleGraph(6)).value(), 2);
  EXPECT_EQ(ExactTreewidth(CompleteGraph(5)).value(), 4);
  EXPECT_EQ(ExactTreewidth(GridGraph(3, 3)).value(), 3);
  EXPECT_EQ(ExactTreewidth(PetersenGraph()).value(), 4);
  EXPECT_EQ(ExactTreewidth(Graph(4)).value(), 0);
}

TEST(ExactTreewidthTest, HeuristicNeverBeatsExact) {
  Rng rng(TestSeed());
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = RandomGnp(9, 0.4, &rng);
    int exact = ExactTreewidth(g).value();
    for (TdHeuristic h :
         {TdHeuristic::kMinDegree, TdHeuristic::kMinFill, TdHeuristic::kMcs}) {
      EXPECT_GE(Decompose(g, h)->Width(), exact);
    }
  }
}

TEST(ExactTreewidthTest, RejectsLargeGraphs) {
  EXPECT_EQ(ExactTreewidth(Graph(25)).status().code(), StatusCode::kOutOfRange);
}

TEST(TdIoTest, RenderContainsAllNodes) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  std::string text = RenderTree(td, NamerFor(s));
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    EXPECT_NE(text.find("n" + std::to_string(i) + " "), std::string::npos);
  }
  EXPECT_NE(text.find("f3"), std::string::npos);
  std::string dot = ToDot(td, NamerFor(s));
  EXPECT_NE(dot.find("graph td"), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
}

}  // namespace
}  // namespace treedl
