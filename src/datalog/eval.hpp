// Datalog evaluation: least fixpoint of P ∪ E(A) (§2.4).
//
// Three engines with identical semantics on semipositive programs:
//  - NaiveEvaluate:     re-derives everything each round (reference oracle).
//  - SemiNaiveEvaluate: standard delta-driven evaluation (the general engine).
//  - GroundedEvaluate (grounder.hpp): Thm 4.4's two-phase O(|P|·|A|) pipeline
//    for quasi-guarded programs — ground via the guards, then LTUR unit
//    propagation.
#ifndef TREEDL_DATALOG_EVAL_HPP_
#define TREEDL_DATALOG_EVAL_HPP_

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/work_budget.hpp"
#include "datalog/ast.hpp"
#include "engine/run_stats.hpp"
#include "structure/structure.hpp"

namespace treedl::datalog {

/// Execution context for the semi-naive engine. Default-constructed (or with
/// a null/single-thread pool) the fixpoint runs sequentially, exactly as
/// before. With a pool, each round's rule-evaluation units run as tasks on
/// it; results are merged in unit order, so the derived model — and every
/// fact-insertion sequence behind it — is bit-identical to the sequential
/// run at any thread count.
struct EvalExec {
  ThreadPool* pool = nullptr;
  /// Delta facts per batch the engine aims for when it splits a wide
  /// (rule, delta position) unit; the batch count is a pure function of the
  /// delta size, never of the thread count, keeping work counters
  /// deterministic across configurations.
  size_t delta_batch_grain = 256;
  /// Optional deadline/memory budget. The fixpoint charges one work unit per
  /// rule task at each round boundary — the task decomposition is a pure
  /// function of the data, so a deadline trips at the same round on every
  /// thread count — and returns Status::DeadlineExceeded on a trip.
  WorkBudget* budget = nullptr;

  bool Parallel() const { return pool != nullptr && pool->NumThreads() > 1; }
};

/// Evaluates `program` over the extensional database `edb`. The result
/// structure carries the union signature (EDB predicates first, then new
/// program predicates) and contains all EDB facts plus the derived IDB
/// facts. Fails if a program predicate clashes in arity with an EDB
/// predicate, or if the program is unsafe (see AnalyzeProgram).
StatusOr<Structure> NaiveEvaluate(const Program& program, const Structure& edb,
                                  RunStats* stats = nullptr);

StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb,
                                      RunStats* stats = nullptr);

/// Semi-naive evaluation with an execution context: rule-level (and, for
/// wide rules, delta-batch) parallelism within each fixpoint round on
/// exec.pool. RunStats::fixpoint_rounds / fixpoint_rule_tasks report the
/// round/task decomposition.
StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb,
                                      const EvalExec& exec, RunStats* stats);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_EVAL_HPP_
