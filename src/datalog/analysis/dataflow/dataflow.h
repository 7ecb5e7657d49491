#ifndef VADA_DATALOG_ANALYSIS_DATAFLOW_DATAFLOW_H_
#define VADA_DATALOG_ANALYSIS_DATAFLOW_DATAFLOW_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "datalog/analysis/dataflow/lattice.h"
#include "datalog/ast.h"

namespace vada::datalog {
class Database;
}  // namespace vada::datalog

namespace vada::datalog::dataflow {

/// Seed facts about one EDB predicate: what the database (or a schema
/// catalog) already knows before any rule fires.
struct PredicateSeed {
  /// Exact fact count when seeded from a Database; kCardUnbounded when
  /// only a schema is known (catalog seeding).
  size_t cardinality = 0;
  /// Per-position abstraction of the stored facts; may be shorter than
  /// the arity used in the program (missing positions default to ⊤).
  std::vector<PosFacts> positions;
};

/// predicate name -> seed. Predicates absent from the map are handled
/// per DataflowOptions::assume_unknown_nonempty.
using EdbSeeds = std::map<std::string, PredicateSeed>;

/// Builds seeds by scanning `db`. Relations larger than `scan_cap`
/// facts get exact cardinality but ⊤ position abstractions (scanning
/// millions of rows to build a 32-element const set is wasted work).
EdbSeeds SeedsFromDatabase(const Database& db, size_t scan_cap = 4096);

struct DataflowOptions {
  /// Open world (lint without a knowledge base): body predicates that
  /// are neither derived by the program nor seeded are assumed to
  /// possibly hold any facts (⊤). Closed world (analysis over a real
  /// database): such predicates are provably empty.
  bool assume_unknown_nonempty = true;
  /// Fixpoint rounds before intervals widen to ±inf. The other domains
  /// are finite, so this is the only termination knob.
  size_t widen_after = 4;
};

/// Why a rule can provably never derive a fact (or violates typing).
/// Ordered roughly most-specific-first; one finding per cause.
enum class FindingKind {
  /// A body atom reads a predicate that can never hold a matching fact
  /// (provably-empty relation, or a join over disjoint value sets).
  kEmptyRule,
  /// A variable (or constant) meets positions of disjoint runtime
  /// types, or a non-numeric value flows into arithmetic.
  kTypeClash,
  /// Comparison refinement left a variable with no possible value
  /// (e.g. X = 5, X > 7).
  kContradictoryComparisons,
  /// A single comparison that can never succeed on its own: constant
  /// vs constant, or operands of never-comparable types.
  kUnsatisfiableGuard,
};

/// "dataflow/empty-rule" etc. — the vada_lint check id of a kind.
const char* FindingCheckId(FindingKind kind);

struct RuleFinding {
  FindingKind kind = FindingKind::kEmptyRule;
  SourcePos pos;        ///< offending literal/term, rule head as fallback
  std::string message;  ///< human-readable cause
};

/// Everything the fixpoint inferred about one predicate.
struct PredicateFacts {
  std::vector<PosFacts> positions;
  /// Static upper bound on the number of distinct facts (kCardUnbounded
  /// when recursion over an unbounded domain defeats the analysis).
  size_t cardinality = 0;
  /// False means *provably* empty: no seed facts and no rule can fire.
  bool possibly_nonempty = false;
};

struct DataflowResult {
  std::map<std::string, PredicateFacts> predicates;
  /// Parallel to Program::rules; empty vector per rule means clean.
  std::vector<std::vector<RuleFinding>> rule_findings;

  /// True when every finding list of `rule_index` is empty.
  bool RuleIsClean(size_t rule_index) const {
    return rule_index >= rule_findings.size() ||
           rule_findings[rule_index].empty();
  }
  /// True when some finding proves the rule can never derive a fact.
  bool RuleProvablyEmpty(size_t rule_index) const;
};

/// Abstract interpretation of `program` over the lattices of lattice.h,
/// to fixpoint through recursion (interval widening guarantees
/// termination). Pure function; never fails — ill-typed programs come
/// back with findings, not errors.
DataflowResult AnalyzeDataflow(const Program& program, const EdbSeeds& seeds,
                               const DataflowOptions& options = {});

}  // namespace vada::datalog::dataflow

#endif  // VADA_DATALOG_ANALYSIS_DATAFLOW_DATAFLOW_H_
