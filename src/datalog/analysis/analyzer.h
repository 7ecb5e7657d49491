#ifndef VADA_DATALOG_ANALYSIS_ANALYZER_H_
#define VADA_DATALOG_ANALYSIS_ANALYZER_H_

#include <string>
#include <string_view>

#include "datalog/analysis/diagnostics.h"
#include "datalog/analysis/predicate_catalog.h"
#include "datalog/ast.h"

namespace vada::datalog::analysis {

/// How to treat body predicates that are neither derived by the program
/// nor declared in the catalog. Open-world contexts (linting a file with
/// no knowledge base, or registration time when EDB relations appear
/// later) want kIgnore or kWarn; a closed catalog can afford kError.
enum class UnknownPredicatePolicy { kIgnore = 0, kWarn, kError };

/// Which optional checks ProgramAnalyzer runs and how strict they are.
/// Stratification, wardedness, catalog (when a catalog is given) and
/// dataflow checks always run. The dataflow/* family is abstract
/// interpretation over type/constant/interval lattices
/// (datalog/analysis/dataflow): position type clashes, provably-empty
/// rules, contradictory comparison chains and unsatisfiable guards.
/// Open-world: predicates outside the catalog are assumed to possibly
/// hold anything, so every finding is a proof.
struct AnalyzerOptions {
  bool check_safety = true;          ///< safety/* (range restriction)
  bool check_lint = true;            ///< lint/* (style & dead code)

  /// When non-empty the program is expected to define this predicate
  /// (goal/undefined error otherwise) and rules that cannot contribute
  /// to it are flagged lint/unreachable-rule. The orchestrator passes
  /// "ready" for transducer input dependencies.
  std::string goal_predicate;

  /// See UnknownPredicatePolicy; only consulted when a catalog is given.
  UnknownPredicatePolicy unknown_predicates = UnknownPredicatePolicy::kWarn;
};

/// Static analysis over parsed Vadalog-lite programs: a pipeline of five
/// check families (safety, stratification, wardedness, catalog
/// consistency, lint), each emitting structured Diagnostics anchored to
/// source positions. Pure function of its inputs; never mutates the
/// program or the catalog and never fails — malformed programs come back
/// as reports full of errors, not as crashes.
class ProgramAnalyzer {
 public:
  explicit ProgramAnalyzer(AnalyzerOptions options = AnalyzerOptions());

  /// Analyzes an already-parsed program. `catalog` may be null (catalog
  /// checks are skipped entirely).
  AnalysisReport Analyze(const Program& program,
                         const PredicateCatalog* catalog = nullptr) const;

  /// Parses `source` with Parser::ParseUnvalidated, then Analyze. Lex or
  /// parse failures yield a single parse/error diagnostic (safety
  /// violations, which Parser::Parse would reject, are reported as
  /// regular safety/* diagnostics instead).
  AnalysisReport AnalyzeSource(std::string_view source,
                               const PredicateCatalog* catalog = nullptr) const;

  const AnalyzerOptions& options() const { return options_; }

 private:
  AnalyzerOptions options_;
};

}  // namespace vada::datalog::analysis

#endif  // VADA_DATALOG_ANALYSIS_ANALYZER_H_
