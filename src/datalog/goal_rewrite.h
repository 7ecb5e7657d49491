#ifndef VADA_DATALOG_GOAL_REWRITE_H_
#define VADA_DATALOG_GOAL_REWRITE_H_

#include <cstddef>
#include <optional>
#include <string>

#include "datalog/ast.h"

namespace vada::datalog {

class Database;

/// What RewriteForGoal did to one program — rendered by vada_explain and
/// asserted on by tests.
struct RewriteReport {
  size_t unreachable_rules = 0;  ///< rules the goal cannot reach
  size_t magic_rules = 0;        ///< demand (magic) and EDB bridge rules
  size_t specialized_rules = 0;  ///< adorned copies of original rules
  bool magic_applied = false;
  /// Non-empty when the magic-set transform was attempted but not
  /// applied: "open demand" when some demand rule would grow the demand
  /// through the recursion, else the validation or stratification error
  /// of the transformed program.
  std::string magic_fallback;

  std::string Summary() const;
};

struct GoalRewrite {
  /// The program Query evaluates; nullopt means the input as is (no
  /// copy is made when there is nothing to rewrite).
  std::optional<Program> program;
  RewriteReport report;
};

/// The goal-directed rewrite Query applies before evaluation, chosen
/// from the program's shape (DESIGN.md §5h):
///  * cone pruning — only rules whose head the goal reaches are kept;
///  * magic sets — when the cone holds a recursive predicate, bound
///    calls get demand-guarded copies, but only on *closed demand*:
///    every demand rule is either a seed fact from the goal's constants
///    or the identity copy `m(X) :- m(X)`, so the demand never grows
///    past the goal's constants. Otherwise magic declines with
///    `magic_fallback == "open demand"` (demand that grows through the
///    recursion does more work than the full fixpoint).
/// When the cone is the whole program and holds no recursion — every
/// dependency-check query — the result is nullopt and costs no copy.
/// The rewritten program derives exactly the input's facts for `goal`
/// over `db` (the differential harness checks this bit-for-bit);
/// predicates that may hold stored facts in `db` keep them visible to
/// their adorned copies. An invalid input is returned as is, so that
/// evaluating it reports the error.
GoalRewrite RewriteForGoal(const Program& program, const std::string& goal,
                           const Database& db);

}  // namespace vada::datalog

#endif  // VADA_DATALOG_GOAL_REWRITE_H_
