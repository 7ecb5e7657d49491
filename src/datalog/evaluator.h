#ifndef VADA_DATALOG_EVALUATOR_H_
#define VADA_DATALOG_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/database.h"
#include "datalog/planner.h"
#include "datalog/provenance.h"
#include "datalog/stratify.h"
#include "obs/metrics.h"

namespace vada::datalog {

struct PlanExplain;  // datalog/explain.h

/// Evaluation strategy and safety limits.
struct EvalOptions {
  /// Semi-naive (delta-driven) fixpoint vs. naive re-derivation. Naive is
  /// kept as the paper-ablation baseline (bench E9) and as an oracle for
  /// differential testing. Semi-naive rounds have batch semantics: every
  /// rule of a round is evaluated against the round-start database and
  /// results are merged in rule order (DESIGN.md §5e).
  bool semi_naive = true;
  /// Hard cap on fixpoint iterations per stratum (safety valve; Datalog
  /// always terminates, so hitting this indicates an engine bug).
  size_t max_iterations = 1000000;
  /// When set, Run() additionally records vada_datalog_* metrics
  /// (rules fired, facts derived, join probes, per-stratum time) into
  /// this registry. Null: no instrumentation beyond EvalStats.
  obs::MetricsRegistry* metrics = nullptr;
  /// Join planning: composite hash-index probing (DESIGN.md §5f).
  /// Defaults on; `{.indexes = false}` is the full-scan reference oracle
  /// the differential fuzz harness compares against. The derived facts,
  /// and their row order, are identical at every setting.
  PlannerOptions planner;
};

/// Counters describing one evaluation run.
///
/// Join work is split by resolution strategy (DESIGN.md §5b):
/// `join_probes` counts candidate facts *scanned* by body atoms with no
/// bound prefix or with indexes disabled (full scans), while
/// `index_probes`/`index_candidates` count composite hash lookups and
/// the exact-match facts they enumerated. Total join work is
/// join_probes + index_probes + index_candidates.
struct EvalStats {
  size_t iterations = 0;         ///< total fixpoint rounds across strata
  size_t facts_derived = 0;      ///< new IDB facts added
  size_t rule_applications = 0;  ///< rule body evaluations attempted
  size_t join_probes = 0;        ///< candidate facts scanned (non-indexed)
  size_t index_probes = 0;       ///< composite hash-index lookups
  size_t index_candidates = 0;   ///< facts enumerated from index buckets
  size_t index_builds = 0;       ///< composite indexes built lazily
};

/// Bottom-up evaluator for validated, stratifiable programs.
///
/// Facts already in the database act as the EDB; derived facts are added
/// in place. Typical use:
///
///   Result<Program> p = Parser::Parse("tc(X,Y) :- edge(X,Y). ...");
///   Database db;                 // load EDB facts
///   Evaluator eval(std::move(p).value());
///   Status s = eval.Prepare();   // validates + stratifies
///   s = eval.Run(&db);
///   std::vector<Tuple> answers = db.facts("tc");  // materialized copy
class Evaluator {
 public:
  explicit Evaluator(Program program, EvalOptions options = EvalOptions());

  /// Validates and stratifies the program; must be called (once) before
  /// Run. Separated from the constructor so errors surface as Status.
  Status Prepare();

  /// Evaluates all strata to fixpoint against `db`. When `provenance` is
  /// non-null, records one derivation (rule + ground positive premises)
  /// per newly derived fact — see Provenance::Explain.
  /// Pre-condition: Prepare() returned OK.
  Status Run(Database* db, EvalStats* stats = nullptr,
             Provenance* provenance = nullptr);

  /// EXPLAIN / EXPLAIN ANALYZE (DESIGN.md §5g). With `analyze == false`,
  /// compiles every stratum's join plans against `db` as-is and fills
  /// `*out` without evaluating anything — `db` is not mutated, and the
  /// estimates of later strata therefore use pre-run cardinalities
  /// (a real run would see earlier strata's derived facts). With
  /// `analyze == true`, runs the program exactly like Run() — mutating
  /// `db`, recording metrics and `stats` — and additionally attributes
  /// per-literal probes, candidates and inclusive time to the plan.
  /// Explain structures are materialized only on this path; Run() pays
  /// nothing for them. Pre-condition: Prepare() returned OK.
  Status Explain(Database* db, PlanExplain* out, bool analyze = false,
                 EvalStats* stats = nullptr);

  const Stratification& stratification() const { return stratification_; }

 private:
  Status RunInternal(Database* db, EvalStats* stats, Provenance* provenance,
                     PlanExplain* explain);

  Program program_;
  EvalOptions options_;
  Stratification stratification_;
  bool prepared_ = false;
};

/// One-shot helper: validates, stratifies and runs `program` against
/// `db`, then returns the facts of `goal_predicate` (sorted, for
/// deterministic comparison). Only the rules the goal reaches run, with
/// magic sets on closed demand (RewriteForGoal, datalog/goal_rewrite.h),
/// so facts of predicates the goal does not need may not be derived
/// into `db`; a program with nothing to rewrite runs as is.
Result<std::vector<Tuple>> Query(const Program& program, Database* db,
                                 const std::string& goal_predicate,
                                 const EvalOptions& options = EvalOptions());

/// Three-way comparison with int/double coercion: -1, 0, 1, or nullopt
/// when the values are of different, non-numeric types.
std::optional<int> CompareValues(const Value& a, const Value& b);

/// Truth of `a op b` under CompareValues semantics (incomparable values
/// satisfy only `!=`) — the comparison-literal semantics, shared with
/// the dataflow analysis so static verdicts match runs.
bool EvalCompare(CompareOp op, const Value& a, const Value& b);

/// Applies `op`; int op int stays int (except division, always double).
/// nullopt on non-numeric operands or division by zero.
std::optional<Value> ApplyArith(ArithOp op, const Value& a, const Value& b);

}  // namespace vada::datalog

#endif  // VADA_DATALOG_EVALUATOR_H_
