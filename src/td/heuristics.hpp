// Tree-decomposition construction.
//
// The paper relies on Bodlaender's linear-time algorithm [3] for obtaining a
// width-w decomposition; that algorithm is famously impractical, so — like
// every practical system in this space (htd, D-FLAT, …) — we provide the
// standard elimination-order heuristics, plus an exact exponential algorithm
// for small graphs used to assess heuristic quality. DESIGN.md records this
// substitution; downstream components only require *a* valid decomposition of
// bounded width.
#ifndef TREEDL_TD_HEURISTICS_HPP_
#define TREEDL_TD_HEURISTICS_HPP_

#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "structure/structure.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

enum class TdHeuristic {
  kMinDegree,        // eliminate a vertex of minimum current degree
  kMinFill,          // eliminate a vertex adding the fewest fill edges
  kMcs,              // maximum cardinality search order (reversed)
  kMinFillTieBreak,  // min-fill, ties broken by current degree then id
};

/// An elimination order chosen greedily by `heuristic`. kMinDegree / kMinFill
/// break ties by lowest id (the historical behavior the default session
/// decompositions — and the transcripts and bench baselines pinned to them —
/// depend on); kMinFillTieBreak breaks min-fill ties by smallest current
/// degree, then lowest id, which dominates kMinFill on width in practice.
///
/// The greedy heuristics keep every live vertex's score in a priority order
/// and update it by deltas, so a step never rescans the graph. Eliminating a
/// vertex of current degree d costs O(d² log Δ) for its neighbourhood, plus
/// O(min(deg x, deg y) · log Δ) per fill edge {x, y} it adds, plus O(log n)
/// per vertex whose score changed, plus an O(Δ) sorted-list shift per edge
/// removed or added (Δ is the maximum current degree). kMcs is O(n²).
std::vector<VertexId> HeuristicOrder(const Graph& graph, TdHeuristic heuristic);

/// Decomposes `graph` with `heuristic` (default: min-fill, usually the best
/// of the three).
StatusOr<TreeDecomposition> Decompose(const Graph& graph,
                                      TdHeuristic heuristic = TdHeuristic::kMinFill);

/// Decomposes a τ-structure via its Gaifman graph (§2.2: a TD of the
/// structure is exactly a TD of the Gaifman graph).
StatusOr<TreeDecomposition> DecomposeStructure(
    const Structure& structure, TdHeuristic heuristic = TdHeuristic::kMinFill);

/// Exact treewidth via the O(2^n · n^2) subset dynamic program over
/// elimination prefixes. Requires n <= 20; intended for tests and the
/// heuristic-quality benchmark.
StatusOr<int> ExactTreewidth(const Graph& graph);

}  // namespace treedl

#endif  // TREEDL_TD_HEURISTICS_HPP_
