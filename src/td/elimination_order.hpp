// Elimination orders and their induced tree decompositions.
//
// Any permutation π of the vertices yields a tree decomposition: eliminate
// vertices in order, each elimination forms the bag {v} ∪ N_current(v) and
// turns the neighborhood into a clique. The width of the best order equals the
// treewidth. The min-degree / min-fill heuristics (td/heuristics.hpp) choose
// the order with their own incremental eliminator, whose per-step cost depends
// only on the eliminated vertex's neighbourhood and the fill it adds; this
// file turns a finished order into bags.
#ifndef TREEDL_TD_ELIMINATION_ORDER_HPP_
#define TREEDL_TD_ELIMINATION_ORDER_HPP_

#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

/// Builds the tree decomposition induced by eliminating `order` (a permutation
/// of all vertices of `graph`). The result is valid for `graph` and its width
/// is the order's induced width.
/// perfbench/wrap.cpp times this function by wrapping its mangled name at
/// link time: its signature, out-of-line definition and translation unit
/// (td/elimination_order.cpp) are load-bearing.
StatusOr<TreeDecomposition> DecompositionFromOrder(
    const Graph& graph, const std::vector<VertexId>& order);

/// The induced width of an elimination order (without building the TD).
StatusOr<int> OrderWidth(const Graph& graph, const std::vector<VertexId>& order);

}  // namespace treedl

#endif  // TREEDL_TD_ELIMINATION_ORDER_HPP_
