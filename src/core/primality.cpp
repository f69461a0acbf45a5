#include "core/primality.hpp"

#include <variant>

#include "common/logging.hpp"
#include "core/primality_internal.hpp"
#include "engine/passes.hpp"
#include "engine/pipeline.hpp"

namespace treedl::core {

namespace {

using internal::PrimalityContext;
using internal::PrimJoinKey;
using internal::PrimState;

// Adapter plugging PrimalityContext into the generic tree-DP driver. Its
// per-node context is the node itself: the Fig. 6 rules read the bag and the
// introduced or forgotten element.
struct PrimalityProblem {
  using State = PrimState;
  using Value = std::monostate;
  using Node = const NormNode*;

  const PrimalityContext* context;

  Node AtNode(const NormNode& node) const { return &node; }

  template <typename Emit>
  void Leaf(Node node, const Emit& emit) const {
    context->LeafStates(node->bag,
                        [&](PrimState s) { emit(std::move(s), {}); });
  }
  template <typename Emit>
  void Introduce(Node node, const State& s, const Value&,
                 const Emit& emit) const {
    auto forward = [&](PrimState next) { emit(std::move(next), {}); };
    if (context->IsAttr(node->element)) {
      context->IntroduceAttr(node->bag, node->element, s, forward);
    } else {
      context->IntroduceFd(node->bag, node->element, s, forward);
    }
  }
  template <typename Emit>
  void Forget(Node node, const State& s, const Value&, const Emit& emit) const {
    auto forward = [&](PrimState next) { emit(std::move(next), {}); };
    if (context->IsAttr(node->element)) {
      context->ForgetAttr(node->bag, node->element, s, forward);
    } else {
      context->ForgetFd(node->bag, node->element, s, forward);
    }
  }
  PrimJoinKey KeyOf(const State& s) const { return context->KeyOf(s); }
  template <typename Emit>
  void Join(Node, const State& a, const Value&, const State& b, const Value&,
            const Emit& emit) const {
    context->Join(a, b, [&](PrimState next) { emit(std::move(next), {}); });
  }
  Value Merge(const Value& a, const Value&) const { return a; }
};

/// Fig. 6 bottom-up DP over the prepared decomposition — validated,
/// rhs-closed, re-rooted at a bag containing `a_elem`, normalized with
/// PrimalityNormalizeOptions(·, false) — and the success test at the root.
bool DecidePrimePrepared(const PrimalityContext& context,
                         const NormalizedTreeDecomposition& ntd,
                         ElementId a_elem, RunStats* stats) {
  MultiDp multi;
  const auto* table =
      multi.Add(PrimalityProblem{&context}, /*retain_tables=*/false);
  DpStats dp;
  RunTreeDp(ntd, &multi, DpExec{}, &dp);
  if (stats != nullptr) {
    stats->dp_states += dp.total_states;
    stats->dp_max_states_per_node =
        std::max(stats->dp_max_states_per_node, dp.max_states_per_node);
  }
  const auto& bag = ntd.Bag(ntd.root());
  for (const auto& [state, value] : table->at(ntd.root())) {
    if (context.Accepts(bag, state, a_elem)) return true;
  }
  return false;
}

}  // namespace

StatusOr<bool> IsPrimeViaTd(const Schema& schema, const SchemaEncoding& encoding,
                            const TreeDecomposition& td, AttributeId a,
                            RunStats* stats) {
  if (stats != nullptr) *stats = RunStats{};
  if (a < 0 || a >= schema.NumAttributes()) {
    return Status::InvalidArgument("attribute id out of range");
  }
  PrimalityContext context(schema, encoding);
  ElementId a_elem = encoding.AttrElement(a);

  engine::PipelineState state;
  state.structure = &encoding.structure;
  state.td = td;
  state.normalize_options =
      internal::PrimalityNormalizeOptions(encoding, /*for_enumeration=*/false);
  engine::PassPipeline pipeline;
  pipeline.Emplace<engine::ValidateStructurePass>()
      .Emplace<engine::RhsClosurePass>(&encoding, &context)
      .Emplace<engine::ReRootAtElementPass>(a_elem)
      .Emplace<engine::NormalizePass>();
  TREEDL_RETURN_IF_ERROR(pipeline.Run(state, stats));
  if (stats != nullptr) ++stats->normalize_builds;

  return DecidePrimePrepared(context, *state.normalized, a_elem, stats);
}

}  // namespace treedl::core
