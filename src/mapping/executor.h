#ifndef VADA_MAPPING_EXECUTOR_H_
#define VADA_MAPPING_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/planner.h"
#include "datalog/provenance.h"
#include "kb/knowledge_base.h"
#include "kb/schema.h"
#include "mapping/mapping.h"

namespace vada {

/// Executes mappings by handing their rule text to the Vadalog reasoner
/// over a knowledge-base snapshot — the paper's "mappings are Vadalog"
/// made operational.
class MappingExecutor {
 public:
  /// `planner` configures join planning of the underlying evaluations
  /// (defaults: indexes on; see datalog/planner.h).
  explicit MappingExecutor(datalog::PlannerOptions planner = {})
      : planner_(planner) {}

  /// Evaluates `mapping` against the source instances in `kb` (borrowed
  /// from KnowledgeBase::Snapshot, so mappings that read one source
  /// share its rows and join indexes) and returns the result as a
  /// relation with the target schema's attribute names, named
  /// `mapping.result_predicate`. When `provenance` is non-null, records
  /// the derivation of every result tuple (rule + ground source tuples),
  /// enabling row-level explanations.
  Result<Relation> Execute(const Mapping& mapping, const Schema& target,
                           const KnowledgeBase& kb,
                           datalog::Provenance* provenance = nullptr) const;

  /// Executes several mappings and unions their results into one relation
  /// named `result_name` with the target schema's attributes.
  Result<Relation> ExecuteUnion(const std::vector<Mapping>& mappings,
                                const Schema& target, const KnowledgeBase& kb,
                                const std::string& result_name) const;

 private:
  datalog::PlannerOptions planner_;
};

}  // namespace vada

#endif  // VADA_MAPPING_EXECUTOR_H_
