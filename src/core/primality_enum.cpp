#include "core/primality_enum.hpp"

#include <atomic>
#include <variant>
#include <vector>

#include "common/flat_table.hpp"
#include "common/logging.hpp"
#include "core/primality.hpp"
#include "core/primality_internal.hpp"
#include "core/tree_dp.hpp"
#include "engine/passes.hpp"
#include "engine/pipeline.hpp"

namespace treedl::core {

namespace {

using internal::PrimalityContext;
using internal::PrimalityProblem;
using internal::PrimeUpTables;
using internal::PrimNode;
using internal::PrimState;
using internal::TableMemoryTracker;

// Insertion-order iteration is deterministic — though the enumeration's
// outputs (prime bits, set sizes) are order-independent anyway.
using StateSet = internal::PrimStateSet;
using UpTable = DpTable<PrimState, std::monostate>;

void ReleaseSet(StateSet* set, TableMemoryTracker* memory) {
  size_t bytes = set->MemoryBytes();
  if (bytes == 0) return;
  set->Release();
  memory->Evict(bytes);
}

/// One node of the top-down solve↓() pass (§5.3): the state set of a node
/// characterizes the *envelope* T̄_s. Formulated per node — "compute my own
/// table from my parent's" — so a parents-first chunk of nodes is a valid
/// schedule for both the sequential walk and the inverted shard schedule.
/// Transitions invert the parent's kind, over the larger of the two bags;
/// at a branch the sibling's bottom-up table joins in. `parent_down` is the
/// parent's solve↓ table (null at the root); the result lands in `states`.
void TopDownStep(const PrimalityProblem& problem,
                 const NormalizedTreeDecomposition& ntd, TdNodeId x,
                 const UpTable& up, const StateSet* parent_down,
                 StateSet* states) {
  auto emit = [states](const PrimState& s, std::monostate) {
    states->Emplace(s, {}, [](std::monostate existing, std::monostate) {
      return existing;
    });
  };
  const PrimalityContext& context = *problem.context;
  if (x == ntd.root()) {
    // Base: the envelope of the root is the root node alone — the leaf rule
    // applied to the root's bag.
    problem.Leaf(context.Node(ntd.Bag(x)), emit);
    return;
  }
  const NormNode& parent = ntd.node(ntd.node(x).parent);
  switch (parent.kind) {
    case NormNodeKind::kLeaf:
      TREEDL_CHECK(false) << "leaf with children";
      break;
    case NormNodeKind::kCopy:
      for (const auto& [s, value] : *parent_down) emit(s, value);
      break;
    case NormNodeKind::kIntroduce: {
      // Parent introduced e going up; going down the envelope forgets it —
      // e's occurrences all lie inside the envelope of the child.
      const PrimNode node = context.Node(ntd.Bag(x), parent.element);
      for (const auto& [s, value] : *parent_down) {
        problem.Forget(node, s, value, emit);
      }
      break;
    }
    case NormNodeKind::kForget: {
      // Parent forgot e going up; going down the envelope introduces it
      // fresh (e occurs only below the child, so only at the child from the
      // envelope's perspective).
      const PrimNode node = context.Node(ntd.Bag(x), parent.element);
      for (const auto& [s, value] : *parent_down) {
        problem.Introduce(node, s, value, emit);
      }
      break;
    }
    case NormNodeKind::kBranch: {
      // T̄_child = T̄_parent ∪ T_sibling: join the parent's envelope states
      // with the sibling's subtree states.
      TdNodeId sibling = parent.children[parent.children[0] == x ? 1 : 0];
      internal::JoinOnKeys(problem, context.Node(ntd.Bag(x)), *parent_down,
                           up.at(sibling), emit);
      break;
    }
  }
}

void CountStates(const StateSet& states, DpStats* stats) {
  if (stats == nullptr) return;
  stats->total_states += states.size();
  stats->max_states_per_node =
      std::max(stats->max_states_per_node, states.size());
}

/// Bottom-up pass over one parents-last chunk (the full post order, or one
/// shard's node list). Eviction: a non-branch node is its child's only
/// reader — branch children must survive for the top-down sibling joins.
/// A tripped budget skips the per-node work but keeps walking the chunk, so
/// the shard scheduling epilogue (and the caller's abort check) still run.
void BottomUpChunk(const PrimalityProblem& problem,
                   const NormalizedTreeDecomposition& ntd,
                   const std::vector<TdNodeId>& nodes, UpTable* up,
                   TableMemoryTracker* memory, bool evict, WorkBudget* budget,
                   DpStats* stats) {
  for (TdNodeId id : nodes) {
    if (budget != nullptr && !budget->ConsumeUnit()) continue;
    internal::DpProcessNode(ntd, id, problem, up);
    CountStates(up->at(id), stats);
    memory->Add(up->at(id).MemoryBytes());
    if (budget != nullptr) {
      budget->CheckTableBytes(memory->current.load(std::memory_order_relaxed));
    }
    if (evict) {
      const NormNode& node = ntd.node(id);
      if (node.kind != NormNodeKind::kBranch) {
        for (TdNodeId child : node.children) {
          ReleaseSet(&up->nodes[static_cast<size_t>(child)], memory);
        }
      }
    }
  }
}

/// Top-down pass over one parents-first chunk. Eviction: after node x is
/// processed, (a) up[sibling(x)] has seen its last read (x's branch join) —
/// siblings release each other's tables, possibly from concurrent shards,
/// each table by its unique reader (only when `evict_up`: the bottom-up
/// tables may be shared); (b) once every child of x's parent is processed
/// (cross-shard atomic countdown), down[parent] is dead — leaves have no
/// children, so the leaf tables the prime read-off needs survive.
void TopDownChunk(const PrimalityProblem& problem,
                  const NormalizedTreeDecomposition& ntd,
                  const std::vector<TdNodeId>& nodes, UpTable* up,
                  std::vector<StateSet>* down,
                  TableMemoryTracker* memory, bool evict, bool evict_up,
                  WorkBudget* budget,
                  std::vector<std::atomic<size_t>>* down_pending,
                  DpStats* stats) {
  for (TdNodeId x : nodes) {
    if (budget != nullptr && !budget->ConsumeUnit()) continue;
    TdNodeId parent_id = ntd.node(x).parent;
    TopDownStep(problem, ntd, x, *up,
                x == ntd.root() ? nullptr
                                : &(*down)[static_cast<size_t>(parent_id)],
                &(*down)[static_cast<size_t>(x)]);
    CountStates((*down)[static_cast<size_t>(x)], stats);
    memory->Add((*down)[static_cast<size_t>(x)].MemoryBytes());
    if (budget != nullptr) {
      budget->CheckTableBytes(memory->current.load(std::memory_order_relaxed));
    }
    if (!evict) continue;
    if (x == ntd.root()) {
      // Nothing reads the root's bottom-up table after its pass completed.
      if (evict_up) ReleaseSet(&up->nodes[static_cast<size_t>(x)], memory);
      continue;
    }
    const NormNode& parent = ntd.node(parent_id);
    if (evict_up && parent.kind == NormNodeKind::kBranch) {
      TdNodeId sibling = parent.children[parent.children[0] == x ? 1 : 0];
      ReleaseSet(&up->nodes[static_cast<size_t>(sibling)], memory);
    }
    if ((*down_pending)[static_cast<size_t>(parent_id)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      ReleaseSet(&(*down)[static_cast<size_t>(parent_id)], memory);
    }
  }
}

/// Folds one walk's DpStats into the caller's RunStats.
void MergeWalk(const DpStats& dp, RunStats* stats) {
  if (stats == nullptr) return;
  stats->dp_states += dp.total_states;
  stats->dp_max_states_per_node =
      std::max(stats->dp_max_states_per_node, dp.max_states_per_node);
  stats->primality_shards += dp.shards;
  stats->dp_shard_millis.insert(stats->dp_shard_millis.end(),
                                dp.shard_millis.begin(), dp.shard_millis.end());
  ++stats->dp_traversals;
  ++stats->dp_passes;
  stats->dp_peak_table_bytes =
      std::max(stats->dp_peak_table_bytes, dp.peak_table_bytes);
  stats->dp_tables_evicted += dp.tables_evicted;
}

/// Per attribute, the shallowest leaf whose bag holds it (first in pre order
/// among equally shallow ones).
std::vector<TdNodeId> ShallowestLeaves(const PrimalityContext& context,
                                       const SchemaEncoding& encoding,
                                       const NormalizedTreeDecomposition& ntd) {
  std::vector<size_t> depth(ntd.NumNodes(), 0);
  std::vector<TdNodeId> leaf_of(static_cast<size_t>(encoding.num_attributes),
                                kNoTdNode);
  for (TdNodeId id : ntd.PreOrder()) {
    const NormNode& node = ntd.node(id);
    if (id != ntd.root()) {
      depth[static_cast<size_t>(id)] =
          depth[static_cast<size_t>(node.parent)] + 1;
    }
    if (node.kind != NormNodeKind::kLeaf) continue;
    for (ElementId e : node.bag) {
      if (!context.IsAttr(e)) continue;
      TdNodeId& leaf = leaf_of[static_cast<size_t>(encoding.AttrOf(e))];
      if (leaf == kNoTdNode ||
          depth[static_cast<size_t>(id)] < depth[static_cast<size_t>(leaf)]) {
        leaf = id;
      }
    }
  }
  return leaf_of;
}

}  // namespace

namespace internal {

std::unique_ptr<PrimeUpTables> BuildPrimeUpTables(
    const PrimalityContext& context, const SchemaEncoding& encoding,
    const NormalizedTreeDecomposition& ntd, const DpExec& exec,
    RunStats* stats) {
  auto tables = std::make_unique<PrimeUpTables>();
  tables->up.nodes.resize(ntd.NumNodes());
  const PrimalityProblem problem{&context};
  DpStats dp;
  TableMemoryTracker memory;
  const bool evict = exec.table_memory_budget > 0;
  // Child shards before their parent.
  if (exec.Parallel()) {
    RunShardedWalk(
        exec,
        [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
          BottomUpChunk(problem, ntd, nodes, &tables->up, &memory, evict,
                        exec.budget, local);
        },
        &dp, WalkDirection::kBottomUp);
  } else {
    BottomUpChunk(problem, ntd, ntd.PostOrder(), &tables->up, &memory, evict,
                  exec.budget, &dp);
  }
  memory.FoldInto(&dp);
  MergeWalk(dp, stats);
  if (exec.budget != nullptr && exec.budget->Aborted()) return nullptr;
  tables->leaf_of = ShallowestLeaves(context, encoding, ntd);
  tables->live_bytes = memory.current.load(std::memory_order_relaxed);
  return tables;
}

StatusOr<bool> DecidePrimeOnPath(const PrimalityContext& context,
                                 const SchemaEncoding& encoding,
                                 const NormalizedTreeDecomposition& ntd,
                                 const PrimeUpTables& tables, AttributeId a,
                                 RunStats* stats) {
  TdNodeId leaf = tables.leaf_of[static_cast<size_t>(a)];
  if (leaf == kNoTdNode) {
    return Status::InvalidArgument(
        "query element not covered by the decomposition");
  }
  std::vector<TdNodeId> path;  // leaf → root
  for (TdNodeId x = leaf;; x = ntd.node(x).parent) {
    path.push_back(x);
    if (x == ntd.root()) break;
  }
  // solve↓ root → leaf, keeping only the parent's table alive.
  DpStats dp;
  StateSet parent_down;
  StateSet states;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    states = StateSet();
    TopDownStep(PrimalityProblem{&context}, ntd, *it, tables.up,
                *it == ntd.root() ? nullptr : &parent_down, &states);
    CountStates(states, &dp);
    std::swap(parent_down, states);
  }
  if (stats != nullptr) {
    stats->dp_states += dp.total_states;
    stats->dp_max_states_per_node =
        std::max(stats->dp_max_states_per_node, dp.max_states_per_node);
  }
  const auto& bag = ntd.Bag(leaf);
  return context.Node(bag).AcceptsAny(
      parent_down, PrimalityContext::AttrRank(bag, encoding.AttrElement(a)));
}

std::vector<bool> EnumeratePrimesTopDown(const PrimalityContext& context,
                                         const SchemaEncoding& encoding,
                                         const NormalizedTreeDecomposition& ntd,
                                         PrimeUpTables* tables,
                                         bool release_up_tables,
                                         RunStats* stats,
                                         const DpExec& exec) {
  DpStats dp;
  size_t num_nodes = ntd.NumNodes();
  UpTable& up = tables->up;
  std::vector<StateSet> down(num_nodes);
  const PrimalityProblem problem{&context};
  // Live bytes carry over from the bottom-up pass, so the peak covers the
  // tables both passes hold at once.
  TableMemoryTracker memory;
  memory.current.store(tables->live_bytes, std::memory_order_relaxed);
  memory.peak.store(tables->live_bytes, std::memory_order_relaxed);
  const bool evict = exec.table_memory_budget > 0;
  const bool evict_up = evict && release_up_tables;

  // The inverted schedule: the root shard first, each shard's nodes in
  // reverse post order.
  std::vector<std::atomic<size_t>> down_pending(num_nodes);
  if (evict) {
    for (size_t id = 0; id < num_nodes; ++id) {
      down_pending[id].store(ntd.node(static_cast<TdNodeId>(id)).children.size(),
                             std::memory_order_relaxed);
    }
  }
  if (exec.Parallel()) {
    RunShardedWalk(
        exec,
        [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
          TopDownChunk(problem, ntd, nodes, &up, &down, &memory, evict,
                       evict_up, exec.budget, &down_pending, local);
        },
        &dp, WalkDirection::kTopDown);
  } else {
    std::vector<TdNodeId> post = ntd.PostOrder();
    std::vector<TdNodeId> pre(post.rbegin(), post.rend());
    TopDownChunk(problem, ntd, pre, &up, &down, &memory, evict, evict_up,
                 exec.budget, &down_pending, &dp);
  }
  memory.FoldInto(&dp);
  MergeWalk(dp, stats);

  // prime(a) is read off at the leaves (every attribute occurs in some leaf
  // bag by the ensure_leaf_coverage normalization option). Note that solve↓
  // at a leaf characterizes the envelope of the leaf — the *entire*
  // structure — exactly like solve at the root of a re-rooted decomposition.
  // Leaf-only on purpose: under a table_memory_budget the eviction protocol
  // above released every *interior* down table (leaves have no children, so
  // the countdown never fires for them) — the leaves are exactly the tables
  // guaranteed to survive the walk.
  std::vector<bool> primes(static_cast<size_t>(encoding.num_attributes), false);
  for (TdNodeId id : ntd.PreOrder()) {
    if (ntd.node(id).kind != NormNodeKind::kLeaf) continue;
    const auto& bag = ntd.Bag(id);
    const PrimNode node = context.Node(bag);
    // A bag lists its attributes first: attribute rank r is bag[r].
    for (uint32_t r = 0; r < node.num_attrs; ++r) {
      AttributeId a = encoding.AttrOf(bag[r]);
      if (!primes[static_cast<size_t>(a)]) {
        primes[static_cast<size_t>(a)] =
            node.AcceptsAny(down[static_cast<size_t>(id)], r);
      }
    }
  }
  return primes;
}

}  // namespace internal

StatusOr<std::vector<bool>> EnumeratePrimes(const Schema& schema,
                                            const SchemaEncoding& encoding,
                                            const TreeDecomposition& td,
                                            RunStats* stats) {
  if (stats != nullptr) *stats = RunStats{};
  PrimalityContext context(schema, encoding);
  engine::PipelineState state;
  state.structure = &encoding.structure;
  state.td = td;
  state.normalize_options =
      internal::PrimalityNormalizeOptions(encoding, /*for_enumeration=*/true);
  engine::PassPipeline pipeline;
  pipeline.Emplace<engine::ValidateStructurePass>()
      .Emplace<engine::RhsClosurePass>(&encoding, &context)
      .Emplace<engine::NormalizePass>();
  TREEDL_RETURN_IF_ERROR(pipeline.Run(state, stats));
  if (stats != nullptr) ++stats->normalize_builds;
  TREEDL_RETURN_IF_ERROR(internal::CheckPrimalityCapacity(
      *state.normalized, encoding, /*enumerate_root=*/true));

  std::unique_ptr<internal::PrimeUpTables> tables =
      internal::BuildPrimeUpTables(context, encoding, *state.normalized, {},
                                   stats);
  return internal::EnumeratePrimesTopDown(context, encoding, *state.normalized,
                                          tables.get(),
                                          /*release_up_tables=*/true, stats);
}

StatusOr<std::vector<bool>> EnumeratePrimesQuadratic(
    const Schema& schema, const SchemaEncoding& encoding,
    const TreeDecomposition& td) {
  std::vector<bool> primes(static_cast<size_t>(schema.NumAttributes()), false);
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    TREEDL_ASSIGN_OR_RETURN(bool prime,
                            IsPrimeViaTd(schema, encoding, td, a));
    primes[static_cast<size_t>(a)] = prime;
  }
  return primes;
}

}  // namespace treedl::core
