#ifndef VADA_DATALOG_PLANNER_H_
#define VADA_DATALOG_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace vada::datalog {

class Database;

/// Join-planning knobs of the evaluator (DESIGN.md §5f). The defaults
/// are the fast path; `{.indexes = false}` is the reference oracle the
/// differential fuzz harness compares against: every atom is resolved
/// by scanning the full relation.
///
/// `indexes` is output-preserving: the derived facts are identical at
/// either setting, in the same row order — index buckets keep insertion
/// order, so probing enumerates the same facts in the same order a scan
/// would.
struct PlannerOptions {
  /// Probe lazy per-(predicate, bound-position-set) hash indexes for the
  /// bound prefix of each body atom instead of scanning candidates.
  /// false: atoms are resolved by full scans (the oracle path).
  bool indexes = true;
};

/// Per-literal record of one planning decision, in execution order.
/// Feeds EXPLAIN (datalog/explain.h); zero-cost when not requested.
struct LiteralPlan {
  size_t body_index = 0;      ///< position in the rule's declared body
  /// The candidate-count estimate at placement time: positive atoms get
  /// EstimatedCost (cardinality shrunk per bound position); hoisted
  /// builtins/negations, and every literal planned without a database,
  /// cost 0.
  size_t estimated_cost = 0;
  size_t bound_terms = 0;     ///< ground terms at placement time
};

/// Returns the execution order of `rule`'s body as indexes into
/// `rule.body`. Greedy: at every step, ready negations / comparisons /
/// assignments (all their variables bound) are hoisted first; then the
/// positive atom with the smallest estimated candidate count is chosen —
/// `FactCount` shrunk per bound position (constants and variables bound
/// by already-placed literals); ties prefer more bound positions, then
/// declared order. With a null `db` every atom costs 0, so the most
/// bound atom goes first, ties by declared order.
/// When `plan` is non-null it receives one LiteralPlan per body literal,
/// parallel to the returned order.
/// Exposed for the planner unit tests; the evaluator calls it per rule
/// at stratum-compile time with the stratum-start database.
std::vector<size_t> PlanBodyOrder(const Rule& rule, const Database* db,
                                  std::vector<LiteralPlan>* plan = nullptr);

}  // namespace vada::datalog

#endif  // VADA_DATALOG_PLANNER_H_
