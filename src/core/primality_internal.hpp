// Shared machinery of the §5.2 decision and §5.3 enumeration algorithms
// (internal header).
//
// The DP state is the solve(s, Y, FY, Co, ΔC, FC) tuple of Fig. 6:
//   Y  — bag attributes inside the candidate closed set Y,
//   Co — bag attributes outside Y, *ordered* by the derivation sequence,
//   FY — bag FDs already witnessed not to contradict closedness of Y,
//   ΔC — bag attributes whose deriving FD has been found,
//   FC — bag FDs used in the derivation sequence.
//
// Packed layout (PrimState, 24 bytes). A bag is sorted and FD element ids
// are >= num_attributes, so a bag lists its attributes first: an attribute's
// rank is its bag position, an FD's rank its bag position minus the bag's
// attribute count. Y and ΔC are uint32 masks over attribute ranks, FY and FC
// uint32 masks over FD ranks, and Co is one uint64 of 4-bit attribute ranks
// in derivation order (BagCodec<4>, sequence position 0 in the low nibble).
// Co holds exactly the bag attributes outside Y, so its length is
// #attributes − |Y| and is not stored; unused nibbles are zero, so two states
// over one bag are equal iff their words are.
//
// Capacity: a bag holds at most kMaxPrimAttrs = 16 attributes (16 nibbles)
// and kMaxPrimFds = 32 FDs. The leaf rule enumerates every ordered partition
// of a bag's attributes, so a bag it runs on — every leaf, and for §5.3 the
// root too — holds at most kMaxLeafAttrs = 10. CheckPrimalityCapacity
// refuses a decomposition beyond these before any walk.
//
// Per-node work happens once per node: PrimalityContext::Node builds a
// PrimNode with the bag's attribute count, the rank of the introduced or
// forgotten element, and per FD rank its rhs attribute bit and lhs mask over
// the bag — the transitions are then mask and nibble operations on the
// packed words, templates on the emit callable.
//
// Transition preconditions (checked with DCHECKs) rely on two invariants
// established by the preprocessing pipeline in primality.cpp:
//   * every bag containing an FD element also contains its rhs attribute
//     (rhs-closure pass + FD-first forget priority during normalization);
//   * bags shrink/grow by one element per normalized-TD edge.
#ifndef TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
#define TREEDL_CORE_PRIMALITY_INTERNAL_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/status.hpp"
#include "core/bag_codec.hpp"
#include "core/tree_dp.hpp"
#include "engine/run_stats.hpp"
#include "schema/encode.hpp"
#include "td/normalize.hpp"

namespace treedl::core::internal {

inline constexpr uint32_t kMaxPrimAttrs = 16;
inline constexpr uint32_t kMaxPrimFds = 32;
inline constexpr uint32_t kMaxLeafAttrs = 10;

struct PrimState {
  uint64_t co = 0;  // attribute ranks in derivation order, 4 bits each
  uint32_t y = 0;   // attribute ranks
  uint32_t dc = 0;  // attribute ranks
  uint32_t fy = 0;  // FD ranks
  uint32_t fc = 0;  // FD ranks

  bool operator==(const PrimState&) const = default;
  size_t hash() const {
    return Mix64(co ^ Mix64((y | uint64_t{dc} << 32) ^
                            Mix64(fy | uint64_t{fc} << 32)));
  }
};
static_assert(sizeof(PrimState) == 24);

/// The per-node context of the transitions: the larger of the two bags an
/// introduce or forget step connects (for a leaf, a branch or the success
/// test, the node's own bag), and the rank of the element the step moves.
struct PrimNode {
  using Ranks = BagCodec<4>;  // Co
  using Bits = BagCodec<1>;   // Y, ΔC, FY, FC

  uint32_t num_attrs = 0;
  uint32_t num_fds = 0;
  /// The moved element: an attribute (rank = attribute rank) or an FD
  /// (rank = FD rank).
  bool moved_attr = false;
  uint32_t rank = 0;
  /// FD ranks whose lhs holds the moved attribute.
  uint32_t lhs_of_moved = 0;
  /// Per FD rank: its rhs as an attribute bit (0 when the rhs is not in the
  /// bag), and its lhs attributes in the bag.
  uint32_t rhs_bit[kMaxPrimFds] = {};
  uint32_t lhs[kMaxPrimFds] = {};

  uint32_t AttrMask() const { return (uint32_t{1} << num_attrs) - 1; }

  /// FDs of the bag with rhs outside y and some bag lhs-attribute outside y —
  /// the outside(FY, Y, At, Fd) predicate.
  uint32_t Outside(uint32_t y) const {
    uint32_t out = 0;
    for (uint32_t j = 0; j < num_fds; ++j) {
      if ((rhs_bit[j] & y) == 0 && (lhs[j] & ~y) != 0) out |= uint32_t{1} << j;
    }
    return out;
  }

  /// Field mask of the first `len` positions of `co` whose rank is >= `r`:
  /// each nibble, widened to a byte lane, carries into bit 4 iff x + 16 - r
  /// reaches 16.
  static uint64_t RanksFrom(uint64_t co, uint32_t len, uint32_t r) {
    constexpr uint64_t kNibbles = 0x0F0F0F0F0F0F0F0FULL;
    constexpr uint64_t kLanes = 0x0101010101010101ULL;
    const uint64_t add = (16 - r) * kLanes;
    uint64_t even = (((co & kNibbles) + add) >> 4) & kLanes;
    uint64_t odd = ((((co >> 4) & kNibbles) + add) >> 4) & kLanes;
    return (even | (odd << 4)) & Ranks::Below(len);
  }

  /// Sequence position of rank `r` among the first `len` of `co`; `len`
  /// when absent.
  static uint32_t Find(uint64_t co, uint32_t len, uint32_t r) {
    uint64_t x = co ^ (r * Ranks::kLowBits);
    uint64_t zero =
        ~(x | (x >> 1) | (x >> 2) | (x >> 3)) & Ranks::kLowBits &
        Ranks::Below(len);
    return zero == 0 ? len : static_cast<uint32_t>(std::countr_zero(zero)) / 4;
  }

  static uint32_t Insert(uint32_t mask, uint32_t pos, uint32_t bit) {
    return static_cast<uint32_t>(Bits::Insert(mask, pos, bit));
  }
  static uint32_t Erase(uint32_t mask, uint32_t pos) {
    return static_cast<uint32_t>(Bits::Erase(mask, pos));
  }

  /// Leaf rule of Fig. 6: all partitions (Y, ordered Co) of the bag's
  /// attributes, all consistent used-FD subsets FC with pairwise distinct
  /// rhs, ΔC = rhs(FC), FY = outside(Y, bag). Emits Y in increasing mask
  /// order, each Y's orders of Co lexicographically, and each order's FC in
  /// increasing subset order.
  template <typename Emit>
  void Leaf(const Emit& emit) const {
    TREEDL_DCHECK(num_attrs <= kMaxLeafAttrs);
    for (uint32_t y = 0; y < (uint32_t{1} << num_attrs); ++y) {
      uint32_t order[kMaxLeafAttrs];
      uint32_t len = 0;
      for (uint32_t r = 0; r < num_attrs; ++r) {
        if (((y >> r) & 1) == 0) order[len++] = r;
      }
      const uint32_t fy = Outside(y);
      // Candidate used-FDs: bag FDs whose rhs lies in Co.
      uint32_t candidates[kMaxPrimFds];
      uint32_t num_candidates = 0;
      for (uint32_t j = 0; j < num_fds; ++j) {
        if ((rhs_bit[j] & ~y) != 0) candidates[num_candidates++] = j;
      }
      do {
        uint64_t co = 0;
        uint32_t position[kMaxLeafAttrs];
        for (uint32_t i = 0; i < len; ++i) {
          co |= uint64_t{order[i]} << (4 * i);
          position[order[i]] = i;
        }
        // consistent(f, Co): lhs attributes in Co precede the rhs.
        uint64_t consistent = 0;
        for (uint32_t k = 0; k < num_candidates; ++k) {
          uint32_t f = candidates[k];
          uint32_t rhs_pos = position[std::countr_zero(rhs_bit[f])];
          bool ok = true;
          for (uint32_t b = lhs[f] & ~y; b != 0; b &= b - 1) {
            if (position[std::countr_zero(b)] >= rhs_pos) ok = false;
          }
          if (ok) consistent |= uint64_t{1} << k;
        }
        for (uint64_t used = 0; used < (uint64_t{1} << num_candidates);
             ++used) {
          if ((used & ~consistent) != 0) continue;
          uint32_t dc = 0;
          uint32_t fc = 0;
          bool distinct = true;
          for (uint64_t u = used; u != 0; u &= u - 1) {
            uint32_t f = candidates[std::countr_zero(u)];
            // Pairwise distinct rhs (ΔC is a disjoint union of rhs's).
            if ((dc & rhs_bit[f]) != 0) {
              distinct = false;
              break;
            }
            dc |= rhs_bit[f];
            fc |= uint32_t{1} << f;
          }
          if (distinct) emit(PrimState{co, y, dc, fy, fc});
        }
      } while (std::next_permutation(order, order + len));
    }
  }

  /// Branch-compatibility key: states join iff (Co, Y, FC) coincide — the
  /// state with ΔC and FY cleared.
  static PrimState KeyOf(const PrimState& s) {
    return PrimState{s.co, s.y, 0, 0, s.fc};
  }

  /// Branch rule over key-equal states: checks unique(ΔC1, ΔC2, FC) — an
  /// attribute derived in both subtrees must owe its derivation to a shared
  /// (bag) FD — and emits the union state.
  template <typename Emit>
  void Join(const PrimState& a, const PrimState& b, const Emit& emit) const {
    TREEDL_DCHECK(KeyOf(a) == KeyOf(b));
    uint32_t fc_rhs = 0;
    for (uint32_t f = a.fc; f != 0; f &= f - 1) {
      fc_rhs |= rhs_bit[std::countr_zero(f)];
    }
    if ((a.dc & b.dc) != fc_rhs) return;
    emit(PrimState{a.co, a.y, a.dc | b.dc, a.fy | b.fy, a.fc});
  }

  /// Success condition at a node whose (subtree/envelope) covers everything,
  /// for the bag attribute of rank `query`: query ∉ Y,
  /// FY = {f ∈ bag | rhs(f) ∉ Y}, ΔC = Co \ {query}.
  bool Accepts(const PrimState& s, uint32_t query) const {
    TREEDL_DCHECK(query < num_attrs);
    if (((s.y >> query) & 1) != 0) return false;
    uint32_t required = 0;
    for (uint32_t j = 0; j < num_fds; ++j) {
      if ((rhs_bit[j] & s.y) == 0) required |= uint32_t{1} << j;
    }
    if (s.fy != required) return false;
    return s.dc == (AttrMask() & ~s.y & ~(uint32_t{1} << query));
  }
  /// Whether some state of a table over this bag is accepted.
  template <typename Table>
  bool AcceptsAny(const Table& states, uint32_t query) const {
    for (const auto& [s, value] : states) {
      if (Accepts(s, query)) return true;
    }
    return false;
  }

  // Introduction rules; `s` is over the bag without the moved element. An
  // attribute b joins Y, or enters Co wherever consistent(FC, Co ⊎ {b}) holds.
  template <typename Emit>
  void IntroduceAttr(const PrimState& s, const Emit& emit) const {
    const uint32_t len = num_attrs - 1 - std::popcount(s.y);
    // Ranks >= the new attribute's move up by one.
    const uint64_t co = s.co + RanksFrom(s.co, len, rank);
    const uint32_t y = Insert(s.y, rank, 0);
    const uint32_t dc = Insert(s.dc, rank, 0);
    // Rule 1: b joins Y.
    emit(PrimState{co, y | uint32_t{1} << rank, dc, s.fy, s.fc});
    // Rule 2: b enters Co at every position up to the first rhs of a used FD
    // with b in its lhs; b ∉ Y may witness additional FDs.
    uint32_t limit = len;
    for (uint32_t f = s.fc & lhs_of_moved; f != 0; f &= f - 1) {
      uint32_t rhs = std::countr_zero(rhs_bit[std::countr_zero(f)]);
      uint32_t rhs_pos = Find(co, len, rhs);
      TREEDL_DCHECK(rhs_pos < len);
      limit = std::min(limit, rhs_pos);
    }
    const uint32_t fy = s.fy | Outside(y);
    for (uint32_t pos = 0; pos <= limit; ++pos) {
      emit(PrimState{Ranks::Insert(co, pos, rank), y, dc, fy, s.fc});
    }
  }

  // FD f: rhs ∈ Y is a no-op; rhs ∈ Co gives "not used" and, with a fresh
  // ΔC slot and an order consistent with f, "used".
  template <typename Emit>
  void IntroduceFd(const PrimState& s, const Emit& emit) const {
    TREEDL_DCHECK(rhs_bit[rank] != 0)
        << "rhs-closure invariant violated at FD introduction";
    const uint32_t fc = Insert(s.fc, rank, 0);
    if ((s.y & rhs_bit[rank]) != 0) {
      // Rule 1: rhs ∈ Y — nothing to track.
      emit(PrimState{s.co, s.y, s.dc, Insert(s.fy, rank, 0), fc});
      return;
    }
    const uint32_t len = num_attrs - std::popcount(s.y);
    const uint32_t rhs = std::countr_zero(rhs_bit[rank]);
    const uint32_t rhs_pos = Find(s.co, len, rhs);
    TREEDL_DCHECK(rhs_pos < len);
    // Is f locally witnessed not to contradict closedness (some bag
    // lhs-attribute outside Y)?
    const uint32_t co_lhs = lhs[rank] & ~s.y;
    const uint32_t fy = Insert(s.fy, rank, co_lhs != 0 ? 1 : 0);
    // Rule 3: f is not used in the derivation.
    emit(PrimState{s.co, s.y, s.dc, fy, fc});
    // Rule 2: f derives rhs — requires a fresh ΔC slot and order consistency.
    if ((s.dc & rhs_bit[rank]) != 0) return;
    for (uint32_t b = co_lhs; b != 0; b &= b - 1) {
      if (Find(s.co, len, std::countr_zero(b)) >= rhs_pos) return;
    }
    emit(PrimState{s.co, s.y, s.dc | rhs_bit[rank], fy,
                   fc | uint32_t{1} << rank});
  }

  // Removal rules; `s` is over the bag with the moved element.
  template <typename Emit>
  void ForgetAttr(const PrimState& s, const Emit& emit) const {
    const uint32_t len = num_attrs - std::popcount(s.y);
    const uint32_t y = Erase(s.y, rank);
    const uint32_t dc = Erase(s.dc, rank);
    if (((s.y >> rank) & 1) != 0) {
      // Ranks above the forgotten attribute move down by one.
      emit(PrimState{s.co - RanksFrom(s.co, len, rank + 1), y, dc, s.fy, s.fc});
      return;
    }
    // b ∈ Co: its derivation must have been established (b ∈ ΔC).
    if (((s.dc >> rank) & 1) == 0) return;
    uint32_t pos = Find(s.co, len, rank);
    TREEDL_DCHECK(pos < len);
    uint64_t co = Ranks::Erase(s.co, pos);
    emit(PrimState{co - RanksFrom(co, len - 1, rank + 1), y, dc, s.fy, s.fc});
  }

  template <typename Emit>
  void ForgetFd(const PrimState& s, const Emit& emit) const {
    const uint32_t fy = Erase(s.fy, rank);
    const uint32_t fc = Erase(s.fc, rank);
    if ((s.y & rhs_bit[rank]) != 0) {
      TREEDL_DCHECK((((s.fy | s.fc) >> rank) & 1) == 0);
      emit(PrimState{s.co, s.y, s.dc, fy, fc});
      return;
    }
    // rhs ∈ Co: f must have been witnessed (f ∈ FY) — otherwise it would
    // contradict the closedness of Y.
    if (((s.fy >> rank) & 1) == 0) return;
    emit(PrimState{s.co, s.y, s.dc, fy, fc});
  }
};

class PrimalityContext {
 public:
  PrimalityContext(const Schema& schema, const SchemaEncoding& encoding);

  /// Marks "no moved element" for Node.
  static constexpr ElementId kNoMove = ~ElementId{0};

  bool IsAttr(ElementId e) const { return encoding_.IsAttrElement(e); }
  bool IsFd(ElementId e) const { return encoding_.IsFdElement(e); }
  ElementId RhsElem(ElementId fd_elem) const {
    return rhs_elem_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }
  const std::vector<ElementId>& LhsElems(ElementId fd_elem) const {
    return lhs_elems_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }

  /// The transition context over bag ∪ {moved}: `bag` is either bag of an
  /// introduce or forget step, `moved` its element; kNoMove for a leaf, a
  /// branch or the success test. Requires a bag within CheckPrimalityCapacity.
  PrimNode Node(const std::vector<ElementId>& bag,
                ElementId moved = kNoMove) const;

  /// The rank of attribute element `a` in `bag` (its bag position).
  static uint32_t AttrRank(const std::vector<ElementId>& bag, ElementId a) {
    return static_cast<uint32_t>(
        std::lower_bound(bag.begin(), bag.end(), a) - bag.begin());
  }

 private:
  const SchemaEncoding& encoding_;
  std::vector<ElementId> rhs_elem_;               // per FdId
  std::vector<std::vector<ElementId>> lhs_elems_; // per FdId, sorted
};

/// Adapter plugging the packed transitions into the generic tree-DP driver
/// (and the §5.3 passes): the per-node context is the node's PrimNode, and
/// branch joins run on KeyOf through internal::JoinOnKeys.
struct PrimalityProblem {
  using State = PrimState;
  using Value = std::monostate;
  using Node = PrimNode;

  const PrimalityContext* context;

  Node AtNode(const NormNode& node) const {
    bool moves = node.kind == NormNodeKind::kIntroduce ||
                 node.kind == NormNodeKind::kForget;
    return context->Node(node.bag,
                         moves ? node.element : PrimalityContext::kNoMove);
  }
  template <typename Emit>
  void Leaf(const Node& node, const Emit& emit) const {
    node.Leaf([&](const PrimState& s) { emit(s, Value{}); });
  }
  template <typename Emit>
  void Introduce(const Node& node, const State& s, const Value&,
                 const Emit& emit) const {
    auto next = [&](const PrimState& t) { emit(t, Value{}); };
    node.moved_attr ? node.IntroduceAttr(s, next) : node.IntroduceFd(s, next);
  }
  template <typename Emit>
  void Forget(const Node& node, const State& s, const Value&,
              const Emit& emit) const {
    auto next = [&](const PrimState& t) { emit(t, Value{}); };
    node.moved_attr ? node.ForgetAttr(s, next) : node.ForgetFd(s, next);
  }
  State KeyOf(const State& s) const { return PrimNode::KeyOf(s); }
  template <typename Emit>
  void Join(const Node& node, const State& a, const Value&, const State& b,
            const Value&, const Emit& emit) const {
    node.Join(a, b, [&](const PrimState& next) { emit(next, Value{}); });
  }
  Value Merge(const Value& a, const Value&) const { return a; }
};

/// ResourceExhausted (a capacity error) when some bag of `ntd` exceeds the
/// packed state — more than kMaxPrimAttrs attributes or kMaxPrimFds FDs —
/// or a bag the leaf rule enumerates holds more than kMaxLeafAttrs
/// attributes: every leaf, and with `enumerate_root` (§5.3) the root.
Status CheckPrimalityCapacity(const NormalizedTreeDecomposition& ntd,
                              const SchemaEncoding& encoding,
                              bool enumerate_root);

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
/// (validated, rhs-closed, normalized with PrimalityNormalizeOptions(·, true)
/// and within CheckPrimalityCapacity(·, ·, true)): one solve() table per
/// normal-form node, plus the leaf each attribute's decision reads. Built
/// once, then read by any number of concurrent DecidePrimeOnPath /
/// EnumeratePrimesTopDown calls; only a top-down pass over tables no one else
/// can see may release them.
struct PrimeUpTables {
  /// solve() table per node id. With a table memory budget the build releases
  /// a table once its non-branch parent consumed it; what survives is what
  /// solve↓ reads — the branch children, for the sibling joins.
  DpTable<PrimState, std::monostate> up;
  /// Per AttributeId: the shallowest leaf whose bag holds the attribute
  /// (kNoTdNode if none does).
  std::vector<TdNodeId> leaf_of;
  /// Arena bytes of `up` when the build finished: the live-byte level the
  /// top-down pass's memory accounting starts from. The packed states live
  /// entirely in the arenas, so this is the tables' whole footprint.
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
