#include "core/primality.hpp"

#include "common/logging.hpp"
#include "core/primality_internal.hpp"
#include "engine/passes.hpp"
#include "engine/pipeline.hpp"

namespace treedl::core {

namespace {

using internal::PrimalityContext;
using internal::PrimalityProblem;

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
  return context.Node(bag).AcceptsAny(table->at(ntd.root()),
                                      PrimalityContext::AttrRank(bag, a_elem));
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
  TREEDL_RETURN_IF_ERROR(internal::CheckPrimalityCapacity(
      *state.normalized, encoding, /*enumerate_root=*/false));

  return DecidePrimePrepared(context, *state.normalized, a_elem, stats);
}

}  // namespace treedl::core
