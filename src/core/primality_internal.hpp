// Shared machinery of the §5.2 decision and §5.3 enumeration algorithms
// (internal header).
//
// The DP state is the solve(s, Y, FY, Co, ΔC, FC) tuple of Fig. 6:
//   Y  — bag attributes inside the candidate closed set Y (sorted),
//   Co — bag attributes outside Y, *ordered* by the derivation sequence,
//   FY — bag FDs already witnessed not to contradict closedness of Y,
//   ΔC — bag attributes whose deriving FD has been found (sorted),
//   FC — bag FDs used in the derivation sequence (sorted).
// All members hold element ids of the encoded τ-structure.
//
// Transition preconditions (checked with DCHECKs) rely on two invariants
// established by the preprocessing pipeline in primality.cpp:
//   * every bag containing an FD element also contains its rhs attribute
//     (rhs-closure pass + FD-first forget priority during normalization);
//   * bags shrink/grow by one element per normalized-TD edge.
#ifndef TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
#define TREEDL_CORE_PRIMALITY_INTERNAL_HPP_

#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "common/flat_table.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "engine/run_stats.hpp"
#include "schema/encode.hpp"
#include "td/normalize.hpp"

namespace treedl::core::internal {

struct PrimState {
  std::vector<ElementId> y;   // sorted
  std::vector<ElementId> co;  // derivation order
  std::vector<ElementId> fy;  // sorted
  std::vector<ElementId> dc;  // sorted
  std::vector<ElementId> fc;  // sorted

  bool operator==(const PrimState&) const = default;
  size_t hash() const {
    size_t seed = HashRange(y);
    HashCombine(&seed, HashRange(co));
    HashCombine(&seed, HashRange(fy));
    HashCombine(&seed, HashRange(dc));
    HashCombine(&seed, HashRange(fc));
    return seed;
  }
};

/// Branch-compatibility key: states join iff (Y, Co, FC) coincide.
struct PrimJoinKey {
  std::vector<ElementId> y;
  std::vector<ElementId> co;
  std::vector<ElementId> fc;

  bool operator==(const PrimJoinKey&) const = default;
  size_t hash() const {
    size_t seed = HashRange(y);
    HashCombine(&seed, HashRange(co));
    HashCombine(&seed, HashRange(fc));
    return seed;
  }
};

class PrimalityContext {
 public:
  PrimalityContext(const Schema& schema, const SchemaEncoding& encoding);

  using EmitState = std::function<void(PrimState)>;

  bool IsAttr(ElementId e) const { return encoding_.IsAttrElement(e); }
  bool IsFd(ElementId e) const { return encoding_.IsFdElement(e); }
  ElementId RhsElem(ElementId fd_elem) const {
    return rhs_elem_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }
  const std::vector<ElementId>& LhsElems(ElementId fd_elem) const {
    return lhs_elems_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }

  /// Leaf rule of Fig. 6: all partitions (Y, ordered Co) of the bag's
  /// attributes, all consistent used-FD subsets FC with pairwise distinct
  /// rhs, ΔC = rhs(FC), FY = outside(Y, bag).
  void LeafStates(const std::vector<ElementId>& bag,
                  const EmitState& emit) const;

  /// Attribute introduction rules (b joins Y, or is inserted anywhere into
  /// Co subject to consistent(FC, Co ⊎ {b})).
  void IntroduceAttr(const std::vector<ElementId>& bag, ElementId b,
                     const PrimState& s, const EmitState& emit) const;

  /// FD introduction rules (rhs ∈ Y: no-op; rhs ∈ Co: used / not used).
  void IntroduceFd(const std::vector<ElementId>& bag, ElementId f,
                   const PrimState& s, const EmitState& emit) const;

  /// Attribute removal rules; `bag` is the bag *without* b.
  void ForgetAttr(const std::vector<ElementId>& bag, ElementId b,
                  const PrimState& s, const EmitState& emit) const;

  /// FD removal rules; `bag` is the bag *without* f.
  void ForgetFd(const std::vector<ElementId>& bag, ElementId f,
                const PrimState& s, const EmitState& emit) const;

  PrimJoinKey KeyOf(const PrimState& s) const {
    return PrimJoinKey{s.y, s.co, s.fc};
  }

  /// Branch rule: requires equal keys; checks unique(ΔC1, ΔC2, FC) and emits
  /// the union state.
  void Join(const PrimState& a, const PrimState& b, const EmitState& emit) const;

  /// Success condition at a node whose (subtree/envelope) covers everything:
  /// a ∉ Y, FY = {f ∈ bag | rhs(f) ∉ Y}, ΔC = Co \ {a}.
  bool Accepts(const std::vector<ElementId>& bag, const PrimState& s,
               ElementId query_attr) const;

  /// FDs of the bag with rhs outside y and some bag lhs-attribute outside y —
  /// the outside(FY, Y, At, Fd) predicate.
  std::vector<ElementId> Outside(const std::vector<ElementId>& bag,
                                 const std::vector<ElementId>& y) const;

 private:
  const SchemaEncoding& encoding_;
  std::vector<ElementId> rhs_elem_;               // per FdId
  std::vector<std::vector<ElementId>> lhs_elems_; // per FdId, sorted
};

/// Extends every bag containing an FD element with that FD's rhs attribute
/// (connectedness is preserved; width may grow — §5.2's "may double the
/// width" remark).
TreeDecomposition CloseBagsForRhs(const TreeDecomposition& td,
                                  const SchemaEncoding& encoding,
                                  const PrimalityContext& context);

/// Normalization options for primality: FD elements are forgotten before
/// attributes and introduced after them, preserving the rhs-closure invariant
/// along every chain.
NormalizeOptions PrimalityNormalizeOptions(const SchemaEncoding& encoding,
                                           bool for_enumeration);

/// Deduplicating state set of the §5.3 passes, over the flat-table arena:
/// Release()/MemoryBytes() back the same eviction protocol as the graph DPs.
using PrimStateSet = FlatTable<PrimState, std::monostate>;

/// The bottom-up half of the §5.3 enumeration over a prepared decomposition
/// (validated, rhs-closed, normalized with PrimalityNormalizeOptions(·, true)):
/// one solve() table per normal-form node, plus the leaf each attribute's
/// decision reads. Built once, then read by any number of concurrent
/// DecidePrimeOnPath / EnumeratePrimesTopDown calls; only a top-down pass
/// over tables no one else can see may release them.
struct PrimeUpTables {
  /// solve() table per node id. With a table memory budget the build releases
  /// a table once its non-branch parent consumed it; what survives is what
  /// solve↓ reads — the branch children, for the sibling joins.
  std::vector<PrimStateSet> up;
  /// Per AttributeId: the shallowest leaf whose bag holds the attribute
  /// (kNoTdNode if none does).
  std::vector<TdNodeId> leaf_of;
  /// Arena bytes of `up` when the build finished: the live-byte level the
  /// top-down pass's memory accounting starts from.
  size_t live_bytes = 0;
};

/// Pass 1 of §5.3: solve() bottom-up over `ntd`, shard-parallel when `exec`
/// carries a sharding and pool, evicting dead tables when
/// exec.table_memory_budget > 0. Returns null when exec.budget aborted the
/// pass (the tables would be partial).
std::unique_ptr<PrimeUpTables> BuildPrimeUpTables(
    const PrimalityContext& context, const SchemaEncoding& encoding,
    const NormalizedTreeDecomposition& ntd, const DpExec& exec,
    RunStats* stats);

/// Is `a` prime, read off the §5.3 tables: solve↓ runs only along the path
/// from the root to tables.leaf_of[a] (at each branch the sibling's solve()
/// table joins in), and the success test is applied at that leaf. Adds the
/// path's states to stats->dp_states / dp_max_states_per_node.
StatusOr<bool> DecidePrimeOnPath(const PrimalityContext& context,
                                 const SchemaEncoding& encoding,
                                 const NormalizedTreeDecomposition& ntd,
                                 const PrimeUpTables& tables, AttributeId a,
                                 RunStats* stats);

/// Pass 2 of §5.3: solve↓ over the whole of `ntd` (the inverted shard
/// schedule when exec.Parallel()), reading prime(a) off at the leaves. With
/// exec.table_memory_budget > 0 dead solve↓ tables are evicted as the pass
/// consumes them, and so are the bottom-up tables of `tables` when
/// `release_up_tables` — only for tables the caller built for this pass and
/// never shared. Results are bit-identical at any thread count; on an
/// aborted exec.budget they are partial and the caller must surface
/// budget->AbortStatus() instead.
std::vector<bool> EnumeratePrimesTopDown(const PrimalityContext& context,
                                         const SchemaEncoding& encoding,
                                         const NormalizedTreeDecomposition& ntd,
                                         PrimeUpTables* tables,
                                         bool release_up_tables,
                                         RunStats* stats,
                                         const DpExec& exec = {});

}  // namespace treedl::core::internal

#endif  // TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
