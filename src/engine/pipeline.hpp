// The pass pipeline: the validate → closure → re-root → normalize
// preparation flow of the §5 algorithms, restructured as named pass objects
// (the MIGraphX `struct pass { name(); apply(state); }` idiom).
//
// A PipelineState carries a working raw decomposition (plus the structure it
// must cover) through the passes; the final NormalizePass deposits the
// modified-normal-form decomposition the DP kernels traverse. Instrumentation
// (per-pass wall-clock into RunStats), pass reordering, and future passes
// (sharding, parallel DP preparation) all hang off this one spine.
//
// Header-only so that core/ can run pipelines without linking the engine
// library (the engine sits above core in the target DAG).
#ifndef TREEDL_ENGINE_PIPELINE_HPP_
#define TREEDL_ENGINE_PIPELINE_HPP_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/timer.hpp"
#include "engine/run_stats.hpp"
#include "structure/structure.hpp"
#include "td/normalize.hpp"
#include "td/shard.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl::engine {

/// State threaded through a preparation pipeline.
struct PipelineState {
  /// The τ-structure the decomposition must cover (validation target); may be
  /// null when a pipeline contains no validation pass.
  const Structure* structure = nullptr;
  /// Working raw decomposition; passes mutate it in place.
  TreeDecomposition td;
  /// Options consumed by NormalizePass.
  NormalizeOptions normalize_options;
  /// Result slot filled by NormalizePass.
  std::optional<NormalizedTreeDecomposition> normalized;
  /// Result slot filled by ShardBagsPass (requires `normalized`).
  std::optional<BagSharding> sharding;
};

/// One named transformation of the pipeline state.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual Status apply(PipelineState& state) const = 0;
};

/// An ordered sequence of passes. Run() times each pass into
/// `stats->passes` and stops at the first failure, prefixing the error with
/// the failing pass's name.
class PassPipeline {
 public:
  PassPipeline& Add(std::unique_ptr<Pass> pass) {
    passes_.push_back(std::move(pass));
    return *this;
  }

  template <typename P, typename... Args>
  PassPipeline& Emplace(Args&&... args) {
    passes_.push_back(std::make_unique<P>(std::forward<Args>(args)...));
    return *this;
  }

  size_t size() const { return passes_.size(); }

  Status Run(PipelineState& state, RunStats* stats = nullptr) const {
    for (const auto& pass : passes_) {
      Timer timer;
      Status status = pass->apply(state);
      if (!status.ok()) {
        return status.WithContext("pass '" + pass->name() + "': ");
      }
      if (stats != nullptr) {
        stats->passes.push_back(PassTiming{pass->name(), timer.ElapsedMillis()});
      }
    }
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace treedl::engine

#endif  // TREEDL_ENGINE_PIPELINE_HPP_
