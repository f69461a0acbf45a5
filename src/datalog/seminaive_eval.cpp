// Semi-naive fixpoint over compiled join plans (datalog/executor.hpp).
//
// Rounds decompose into rule x delta-position x delta-batch task units, each
// running one compiled JoinPlan against the shared columnar store; units
// merge in task order, so the derived model and every fact-insertion
// sequence are bit-identical to a sequential run at any thread count.
#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "datalog/eval.hpp"
#include "datalog/eval_internal.hpp"

namespace treedl::datalog {

namespace {

constexpr size_t kMaxDeltaBatches = 8;

/// One rule-evaluation unit of a fixpoint round: rule x delta variant x
/// contiguous delta batch. Round 0 units carry variant = -1 (the full plan)
/// and a full-relation range. The decomposition of a round into units
/// depends only on the program and the delta sizes — never on the thread
/// count — so the fixpoint_rule_tasks counter (and every derived-work
/// counter) is identical between sequential and parallel runs.
struct RuleTask {
  size_t rule = 0;
  int variant = -1;  // index into CompiledRule::delta_variants, -1 = full
  internal::DeltaRange range;
};

struct TaskResult {
  /// Derived head tuples, flat in the task's own arena.
  PendingSet pending;
  ExecCounters counters;
};

/// Pre-builds every (predicate, bound-pattern) index the compiled plans
/// will probe against `store`. Plan compilation already fixed each step's
/// probe mask from the statically-bound variable set — at plan position k
/// exactly the variables of positive steps 0..k-1 are bound, regardless of
/// which position is the delta — so the full plans' step masks cover every
/// store probe any delta variant makes. With the probed indexes frozen, a
/// parallel round's Probe calls are pure reads (Add keeps built indexes
/// maintained between rounds as the merge step inserts derived facts).
///
/// `delta_positions_only` freezes instead the masks the delta steps probe —
/// applied to each round's fresh delta store.
void FreezeIndexes(const internal::PreparedProgram& prep, FactStore* store,
                   bool delta_positions_only) {
  for (const CompiledRule& compiled : prep.compiled) {
    if (!delta_positions_only) {
      for (const CompiledStep& step : compiled.full.steps) {
        store->EnsureIndex(step.spec.predicate, step.spec.probe_mask);
      }
      continue;
    }
    for (const JoinPlan& variant : compiled.delta_variants) {
      const CompiledStep& step =
          variant.steps[static_cast<size_t>(variant.delta_position)];
      store->EnsureIndex(step.spec.predicate, step.spec.probe_mask);
    }
  }
}

/// Executes `tasks` — on exec.pool when it is usable, inline otherwise — and
/// returns the per-task results in task order. Tasks only read `prep.store`
/// and `delta`; the caller replays the pending facts in task order, so the
/// store's insertion sequence is bit-identical to the sequential engine's.
std::vector<TaskResult> RunRuleTasks(const internal::PreparedProgram& prep,
                                     FactStore* store, FactStore* delta,
                                     const std::vector<RuleTask>& tasks,
                                     const EvalExec& exec) {
  std::vector<TaskResult> results(tasks.size());
  auto run_one = [&](size_t i) {
    const RuleTask& task = tasks[i];
    const CompiledRule& compiled = prep.compiled[task.rule];
    const JoinPlan& plan =
        task.variant < 0
            ? compiled.full
            : compiled.delta_variants[static_cast<size_t>(task.variant)];
    TaskResult& out = results[i];
    ExecutePlan(plan, store, delta, task.range.begin, task.range.end,
                &out.pending, &out.counters);
  };
  if (!exec.Parallel() || tasks.size() <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) run_one(i);
    return results;
  }
  WaitGroup done;
  done.Add(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    exec.pool->Submit([&run_one, &done, i] {
      run_one(i);
      done.Done();
    });
  }
  // Help drain the pool instead of idling (also makes progress when several
  // concurrent queries share one pool).
  while (exec.pool->RunOneTask()) {
  }
  done.Wait();
  return results;
}

/// Batch count for one (rule, delta variant) unit: 1 unless the delta
/// literal is the plan's first step (no prefix join to re-run per batch) and
/// its delta relation is wide enough to be worth splitting. A pure function
/// of the data and exec.delta_batch_grain.
size_t NumDeltaBatches(int delta_position, size_t delta_size,
                       const EvalExec& exec) {
  if (delta_position != 0 || exec.delta_batch_grain == 0) return 1;
  if (delta_size < 2 * exec.delta_batch_grain) return 1;
  return std::min(kMaxDeltaBatches, delta_size / exec.delta_batch_grain);
}

void AppendBatchedTasks(std::vector<RuleTask>* tasks, size_t rule_index,
                        int variant, size_t delta_size, size_t batches) {
  for (size_t b = 0; b < batches; ++b) {
    RuleTask task;
    task.rule = rule_index;
    task.variant = variant;
    task.range.begin = delta_size * b / batches;
    task.range.end = delta_size * (b + 1) / batches;
    tasks->push_back(task);
  }
}

}  // namespace

StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb,
                                      const EvalExec& exec, RunStats* stats) {
  if (stats != nullptr) *stats = RunStats{};
  TREEDL_ASSIGN_OR_RETURN(internal::PreparedProgram prep,
                          internal::Prepare(program, edb));
  RunStats local;
  ExecCounters exec_counters;
  size_t rule_tasks = 0;
  const bool parallel = exec.Parallel();
  // The store is shared read-only by the tasks of a round; freeze its
  // indexes up front so no task triggers a lazy index build mid-round (Add
  // maintains them as the merge step inserts derived facts).
  if (parallel) FreezeIndexes(prep, &prep.store, /*delta_positions_only=*/false);

  // Round 0: full evaluation against the EDB (+ ground facts); all derived
  // facts form the first delta.
  FactStore delta(prep.result.signature());
  auto derive_into = [&](FactStore* next_delta, PredicateId pred,
                         const Tuple& tuple) {
    if (prep.store.Add(pred, tuple)) {
      ++local.derived_facts;
      next_delta->Add(pred, tuple);
      Status st = prep.result.AddFact(pred, tuple);
      TREEDL_CHECK(st.ok()) << st.ToString();
    }
  };
  auto merge_results = [&](const std::vector<TaskResult>& results,
                           FactStore* next_delta) {
    for (const TaskResult& result : results) {
      exec_counters.work += result.counters.work;
      exec_counters.dispatches += result.counters.dispatches;
      for (size_t i = 0; i < result.pending.size(); ++i) {
        const ElementId* args = result.pending.args(i);
        derive_into(next_delta, result.pending.predicate(i),
                    Tuple(args, args + result.pending.arity(i)));
      }
    }
  };

  // Deadline accounting: one work unit per rule task, charged at the round
  // boundary on the evaluating thread. The round/task decomposition is a
  // pure function of the program and the delta sizes, so a deadline trips
  // before the same round at every thread count.
  auto charge_round = [&](size_t num_tasks) -> bool {
    if (exec.budget == nullptr) return true;
    bool ok = true;
    for (size_t i = 0; i < num_tasks; ++i) {
      if (!exec.budget->ConsumeUnit()) ok = false;
    }
    return ok;
  };

  {
    ++local.eval_iterations;
    std::vector<RuleTask> tasks;
    tasks.reserve(prep.rules.size());
    for (size_t r = 0; r < prep.rules.size(); ++r) {
      tasks.push_back(RuleTask{r, -1, {}});
    }
    rule_tasks += tasks.size();
    if (!charge_round(tasks.size())) return exec.budget->AbortStatus();
    merge_results(RunRuleTasks(prep, &prep.store, nullptr, tasks, exec),
                  &delta);
  }

  // Delta rounds: for every rule and every delta variant (one per positive
  // intensional body position, ascending), run the variant's plan with its
  // delta step against the previous delta and the rest against the full
  // store; wide position-0 deltas split into contiguous batches. Duplicate
  // derivations are absorbed by the store.
  while (delta.TotalFacts() > 0) {
    ++local.eval_iterations;
    if (parallel) FreezeIndexes(prep, &delta, /*delta_positions_only=*/true);
    FactStore next_delta(prep.result.signature());
    std::vector<RuleTask> tasks;
    for (size_t r = 0; r < prep.rules.size(); ++r) {
      const CompiledRule& compiled = prep.compiled[r];
      for (size_t v = 0; v < compiled.delta_variants.size(); ++v) {
        const JoinPlan& variant = compiled.delta_variants[v];
        size_t delta_size = delta.NumTuples(
            variant.steps[static_cast<size_t>(variant.delta_position)]
                .spec.predicate);
        AppendBatchedTasks(
            &tasks, r, static_cast<int>(v), delta_size,
            NumDeltaBatches(variant.delta_position, delta_size, exec));
      }
    }
    rule_tasks += tasks.size();
    if (!charge_round(tasks.size())) return exec.budget->AbortStatus();
    merge_results(RunRuleTasks(prep, &prep.store, &delta, tasks, exec),
                  &next_delta);
    delta = std::move(next_delta);
  }

  local.rule_applications = exec_counters.work;
  if (stats != nullptr) {
    stats->eval_iterations += local.eval_iterations;
    stats->derived_facts += local.derived_facts;
    stats->rule_applications += local.rule_applications;
    stats->fixpoint_rounds += local.eval_iterations;
    stats->fixpoint_rule_tasks += rule_tasks;
    stats->plan_compiles += prep.plan_compiles;
    stats->executor_dispatches += exec_counters.dispatches;
  }
  return std::move(prep.result);
}

StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb, RunStats* stats) {
  return SemiNaiveEvaluate(program, edb, EvalExec{}, stats);
}

}  // namespace treedl::datalog
