// Differential oracle for the tree-decomposition validator.
//
// The library validates through per-element occurrence lists: each fact is
// checked only against the bags holding its least-occurring argument. The
// reference below is the bag-scan validator it replaced, which tried every
// bag for every fact. It is kept verbatim apart from one change: its
// connectedness check reports the lowest violating element id (std::map),
// where the original reported whichever element an unordered_map happened to
// visit first. On every input, valid or corrupted, the library must return
// the same verdict, code and message as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "schema/encode.hpp"
#include "schema/generators.hpp"
#include "td/heuristics.hpp"
#include "td/validate.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

// ---------------------------------------------------------------------------
// The reference: the bag-scan validator.
// ---------------------------------------------------------------------------

Status CheckConnectednessOracle(const TreeDecomposition& td) {
  std::map<ElementId, int> occurrences;
  std::map<ElementId, int> linked;
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    for (ElementId e : td.Bag(id)) {
      occurrences[e] += 1;
      TdNodeId p = td.node(id).parent;
      if (p != kNoTdNode && td.BagContains(p, e)) linked[e] += 1;
    }
  }
  for (const auto& [e, count] : occurrences) {
    if (linked[e] != count - 1) {
      return Status::InvalidArgument(
          "connectedness violated for element id " + std::to_string(e) + ": " +
          std::to_string(count) + " occurrences, " + std::to_string(linked[e]) +
          " parent links");
    }
  }
  return Status::OK();
}

Status CheckTreeShapeOracle(const TreeDecomposition& td) {
  if (td.Empty()) return Status::InvalidArgument("empty tree decomposition");
  if (td.root() == kNoTdNode) {
    return Status::InvalidArgument("tree decomposition has no root");
  }
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

bool SomeBagCoversOracle(const TreeDecomposition& td,
                         const std::vector<ElementId>& elements) {
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    const auto& bag = td.Bag(static_cast<TdNodeId>(i));
    if (std::includes(bag.begin(), bag.end(), elements.begin(),
                      elements.end())) {
      return true;
    }
  }
  return false;
}

Status ValidateConnectednessOracle(const TreeDecomposition& td) {
  TREEDL_RETURN_IF_ERROR(CheckTreeShapeOracle(td));
  return CheckConnectednessOracle(td);
}

Status ValidateForStructureOracle(const Structure& structure,
                                  const TreeDecomposition& td) {
  TREEDL_RETURN_IF_ERROR(ValidateConnectednessOracle(td));
  std::vector<bool> covered(structure.NumElements(), false);
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    for (ElementId e : td.Bag(static_cast<TdNodeId>(i))) {
      if (e >= structure.NumElements()) {
        return Status::InvalidArgument("bag element not in structure domain");
      }
      covered[e] = true;
    }
  }
  for (ElementId e = 0; e < structure.NumElements(); ++e) {
    if (!covered[e]) {
      return Status::InvalidArgument("element not covered by any bag: " +
                                     structure.ElementName(e));
    }
  }
  for (const Fact& fact : structure.AllFacts()) {
    std::vector<ElementId> args = fact.args;
    std::sort(args.begin(), args.end());
    args.erase(std::unique(args.begin(), args.end()), args.end());
    if (!SomeBagCoversOracle(td, args)) {
      return Status::InvalidArgument(
          "fact not covered by any bag: predicate " +
          structure.signature().name(fact.predicate));
    }
  }
  return Status::OK();
}

Status ValidateForGraphOracle(const Graph& graph, const TreeDecomposition& td) {
  TREEDL_RETURN_IF_ERROR(ValidateConnectednessOracle(td));
  std::vector<bool> covered(graph.NumVertices(), false);
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    for (ElementId e : td.Bag(static_cast<TdNodeId>(i))) {
      if (e >= graph.NumVertices()) {
        return Status::InvalidArgument("bag element not a graph vertex");
      }
      covered[e] = true;
    }
  }
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!covered[v]) {
      return Status::InvalidArgument("vertex not covered by any bag: v" +
                                     std::to_string(v));
    }
  }
  for (auto [u, v] : graph.Edges()) {
    std::vector<ElementId> pair{std::min(u, v), std::max(u, v)};
    if (!SomeBagCoversOracle(td, pair)) {
      return Status::InvalidArgument("edge not covered by any bag: {v" +
                                     std::to_string(u) + ", v" +
                                     std::to_string(v) + "}");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Comparison and inputs.
// ---------------------------------------------------------------------------

void ExpectSameStatus(const Status& got, const Status& want) {
  EXPECT_EQ(got.ok(), want.ok());
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
}

// Compares the library with the reference on (structure, td), and on the
// Gaifman graph when every fact is binary. Returns the reference verdict.
Status ExpectMatchesOracle(const Structure& structure,
                           const TreeDecomposition& td,
                           const std::string& label) {
  SCOPED_TRACE(label);
  Status want = ValidateForStructureOracle(structure, td);
  ExpectSameStatus(ValidateForStructure(structure, td), want);
  ExpectSameStatus(ValidateConnectedness(td), ValidateConnectednessOracle(td));
  Graph gaifman = GaifmanGraph(structure);
  ExpectSameStatus(ValidateForGraph(gaifman, td),
                   ValidateForGraphOracle(gaifman, td));
  return want;
}

constexpr TdHeuristic kHeuristics[] = {
    TdHeuristic::kMinDegree, TdHeuristic::kMinFill, TdHeuristic::kMcs,
    TdHeuristic::kMinFillTieBreak};

// Random facts of arity 0..4 over `n` elements, arguments drawn from a
// window so the structure keeps a small treewidth; arguments may repeat.
Structure RandomHypergraphStructure(size_t n, size_t facts, Rng* rng) {
  Signature sig =
      Signature::Make({{"z", 0}, {"u", 1}, {"b", 2}, {"t", 3}, {"q", 4}})
          .value();
  Structure s(sig);
  for (size_t e = 0; e < n; ++e) s.AddElement("x" + std::to_string(e));
  for (size_t i = 0; i < facts; ++i) {
    PredicateId p = static_cast<PredicateId>(rng->UniformIndex(5));
    size_t base = rng->UniformIndex(n);
    Tuple args;
    for (int a = 0; a < sig.arity(p); ++a) {
      args.push_back(
          static_cast<ElementId>(std::min(n - 1, base + rng->UniformIndex(4))));
    }
    EXPECT_TRUE(s.AddFact(p, std::move(args)).ok());
  }
  return s;
}

std::vector<std::pair<std::string, Structure>> Structures(Rng* rng) {
  std::vector<std::pair<std::string, Structure>> out;
  for (int k : {1, 3, 5}) {
    for (size_t n : {12, 60, 200}) {
      out.emplace_back(
          "partial " + std::to_string(k) + "-tree n=" + std::to_string(n),
          GraphToStructure(RandomPartialKTree(n, k, 0.6, rng)));
    }
  }
  for (int attributes : {10, 40, 120}) {
    out.emplace_back(
        "window schema n=" + std::to_string(attributes),
        EncodeSchema(RandomWindowSchema(attributes, 2 * attributes / 3, 5, rng))
            .structure);
  }
  out.emplace_back("balanced schema fds=40",
                   EncodeSchema(GenerateBalancedInstance(40).schema).structure);
  for (size_t n : {8, 50, 150}) {
    out.emplace_back("hypergraph n=" + std::to_string(n),
                     RandomHypergraphStructure(n, 2 * n, rng));
  }
  return out;
}

// Corrupts a TD the way a faulty loader could: TreeDecomposition keeps its
// pointers consistent through its public API, so this reaches into a node.
TdNode& MutableNode(TreeDecomposition* td, TdNodeId id) {
  return const_cast<TdNode&>(td->node(id));
}

TdNodeId RandomNode(const TreeDecomposition& td, Rng* rng) {
  return static_cast<TdNodeId>(rng->UniformIndex(td.NumNodes()));
}

// A node that neither holds `e` nor touches a node that does: adding `e`
// there splits e's occurrence set. kNoTdNode if there is none.
TdNodeId NodeFarFrom(const TreeDecomposition& td, ElementId e) {
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    const TdNode& node = td.node(id);
    bool near = td.BagContains(id, e) ||
                (node.parent != kNoTdNode && td.BagContains(node.parent, e));
    for (TdNodeId c : node.children) near = near || td.BagContains(c, e);
    if (!near) return id;
  }
  return kNoTdNode;
}

void AddToBag(TreeDecomposition* td, TdNodeId id, ElementId e) {
  std::vector<ElementId> bag = td->Bag(id);
  bag.push_back(e);
  td->SetBag(id, std::move(bag));
}

// Runs every mutation on a copy of (structure, td); each one must be
// rejected, with the reference's message.
void CheckMutations(const Structure& structure, const TreeDecomposition& td,
                    const std::string& label, Rng* rng) {
  size_t n = structure.NumElements();
  auto expect_invalid = [&](const Structure& s, const TreeDecomposition& t,
                            const std::string& what) {
    Status want = ExpectMatchesOracle(s, t, label + ": " + what);
    EXPECT_FALSE(want.ok()) << label << ": " << what;
  };

  // An element dropped from one bag: a fact, its connectedness or its
  // coverage breaks, depending on where it sat.
  for (int r = 0; r < 4; ++r) {
    TreeDecomposition t = td;
    TdNodeId id = RandomNode(t, rng);
    std::vector<ElementId> bag = t.Bag(id);
    if (bag.empty()) continue;
    bag.erase(bag.begin() + static_cast<long>(rng->UniformIndex(bag.size())));
    t.SetBag(id, std::move(bag));
    ExpectMatchesOracle(structure, t, label + ": dropped element");
  }
  // A split occurrence set.
  for (int r = 0; r < 4; ++r) {
    ElementId e = static_cast<ElementId>(rng->UniformIndex(n));
    TdNodeId far = NodeFarFrom(td, e);
    if (far == kNoTdNode) continue;
    TreeDecomposition t = td;
    AddToBag(&t, far, e);
    expect_invalid(structure, t, "split occurrences of " + std::to_string(e));
  }
  // Out-of-domain ids: a dense one, a huge one, and a huge one whose own
  // occurrences are split.
  for (ElementId bad : {static_cast<ElementId>(n), ElementId{0xfffffff0u}}) {
    TreeDecomposition t = td;
    AddToBag(&t, RandomNode(t, rng), bad);
    expect_invalid(structure, t, "out of domain " + std::to_string(bad));
  }
  if (td.NumNodes() >= 3) {
    TreeDecomposition t = td;
    ElementId bad = 0xfffffff0u;
    AddToBag(&t, t.root(), bad);
    TdNodeId far = NodeFarFrom(t, bad);
    if (far != kNoTdNode) {
      AddToBag(&t, far, bad);
      expect_invalid(structure, t, "split out-of-domain id");
    }
  }
  // An uncovered element: a fresh isolated one, and one erased everywhere.
  {
    Structure s = structure;
    s.AddElement("fresh_isolated");
    expect_invalid(s, td, "fresh element");
  }
  {
    ElementId e = static_cast<ElementId>(rng->UniformIndex(n));
    TreeDecomposition t = td;
    for (size_t i = 0; i < t.NumNodes(); ++i) {
      std::vector<ElementId> bag = t.Bag(static_cast<TdNodeId>(i));
      bag.erase(std::remove(bag.begin(), bag.end(), e), bag.end());
      t.SetBag(static_cast<TdNodeId>(i), std::move(bag));
    }
    expect_invalid(structure, t, "erased element " + std::to_string(e));
  }
  // An uncovered fact over the widest predicate, on elements that share no
  // bag.
  PredicateId widest = 0;
  for (PredicateId p = 0; p < structure.signature().size(); ++p) {
    if (structure.signature().arity(p) > structure.signature().arity(widest)) {
      widest = p;
    }
  }
  if (structure.signature().arity(widest) >= 2) {
    for (int r = 0; r < 8; ++r) {
      ElementId a = static_cast<ElementId>(rng->UniformIndex(n));
      ElementId b = static_cast<ElementId>(rng->UniformIndex(n));
      std::vector<ElementId> pair{std::min(a, b), std::max(a, b)};
      if (a == b || SomeBagCoversOracle(td, pair)) continue;
      Structure s = structure;
      Tuple args(static_cast<size_t>(structure.signature().arity(widest)), a);
      args.back() = b;
      ASSERT_TRUE(s.AddFact(widest, std::move(args)).ok());
      expect_invalid(s, td, "uncovered fact");
      break;
    }
  }
  // Inconsistent parent/child pointers, a cycle, and a parent pointer on the
  // root (which the shape check does not see).
  if (td.NumNodes() >= 3) {
    TreeDecomposition t = td;
    TdNodeId child = t.node(t.root()).children.front();
    TdNodeId other = kNoTdNode;
    for (size_t i = 0; i < t.NumNodes(); ++i) {
      TdNodeId id = static_cast<TdNodeId>(i);
      if (id != t.root() && id != child) other = id;
    }
    MutableNode(&t, child).parent = other;
    expect_invalid(structure, t, "inconsistent parent pointer");

    TreeDecomposition cyc = td;
    TdNodeId leaf = kNoTdNode;
    for (size_t i = 0; i < cyc.NumNodes(); ++i) {
      TdNodeId id = static_cast<TdNodeId>(i);
      if (cyc.node(id).children.empty()) leaf = id;
    }
    MutableNode(&cyc, leaf).children.push_back(cyc.root());
    expect_invalid(structure, cyc, "child pointer to the root");

    TreeDecomposition rooted = td;
    MutableNode(&rooted, rooted.root()).parent = RandomNode(rooted, rng);
    ExpectMatchesOracle(structure, rooted, label + ": root with a parent");
  }
}

TEST(ValidateOracleTest, HeuristicDecompositionsAreValid) {
  Rng rng(TestSeed());
  for (const auto& [label, structure] : Structures(&rng)) {
    for (TdHeuristic h : kHeuristics) {
      auto td = DecomposeStructure(structure, h);
      ASSERT_TRUE(td.ok()) << td.status();
      Status want = ExpectMatchesOracle(
          structure, *td,
          label + " heuristic " + std::to_string(static_cast<int>(h)));
      EXPECT_TRUE(want.ok()) << label << ": " << want;
    }
  }
}

TEST(ValidateOracleTest, MutatedDecompositionsMatch) {
  Rng rng(TestSeed());
  for (const auto& [label, structure] : Structures(&rng)) {
    for (TdHeuristic h : kHeuristics) {
      auto td = DecomposeStructure(structure, h);
      ASSERT_TRUE(td.ok()) << td.status();
      CheckMutations(structure, *td,
                     label + " heuristic " +
                         std::to_string(static_cast<int>(h)),
                     &rng);
    }
  }
}

TEST(ValidateOracleTest, EmptyDecompositionAndZeroArityFacts) {
  Structure s(Signature::Make({{"z", 0}, {"b", 2}}).value());
  ExpectMatchesOracle(s, TreeDecomposition(), "empty structure, empty td");
  ASSERT_TRUE(s.AddFact(0, {}).ok());
  TreeDecomposition one;
  one.AddNode({});
  EXPECT_TRUE(ExpectMatchesOracle(s, one, "zero-arity fact, empty bag").ok());
  ElementId a = s.AddElement("a");
  ElementId b = s.AddElement("b");
  ASSERT_TRUE(s.AddFact(1, {a, a}).ok());
  TreeDecomposition two;
  TdNodeId r = two.AddNode({a});
  two.AddNode({b}, r);
  EXPECT_TRUE(ExpectMatchesOracle(s, two, "repeated argument").ok());
  ASSERT_TRUE(s.AddFact(1, {b, a}).ok());
  EXPECT_FALSE(ExpectMatchesOracle(s, two, "uncovered b(b, a)").ok());
}

}  // namespace
}  // namespace treedl
