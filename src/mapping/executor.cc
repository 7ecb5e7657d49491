#include "mapping/executor.h"

#include <algorithm>

#include "datalog/evaluator.h"
#include "datalog/parser.h"

namespace vada {

Result<Relation> MappingExecutor::Execute(const Mapping& mapping,
                                          const Schema& target,
                                          const KnowledgeBase& kb,
                                          datalog::Provenance* provenance)
    const {
  Result<datalog::Program> program = datalog::Parser::Parse(mapping.rule_text);
  if (!program.ok()) {
    return Status::InvalidArgument("mapping " + mapping.id +
                                   " has unparsable rule: " +
                                   program.status().message());
  }
  // Load only the mapping's source relations. Loading the whole KB would
  // feed the *previous* execution's result relation back in as EDB facts
  // of the head predicate, accumulating stale tuples across re-runs.
  datalog::Database db;
  for (const std::string& source : mapping.source_relations) {
    db.AttachShared(kb.Snapshot(source));
  }
  datalog::EvalOptions eval_options;
  eval_options.planner = planner_;
  datalog::Evaluator eval(program.value(), eval_options);
  VADA_RETURN_IF_ERROR(eval.Prepare());
  VADA_RETURN_IF_ERROR(eval.Run(&db, /*stats=*/nullptr, provenance));
  std::vector<Tuple> sorted = db.facts(mapping.result_predicate);
  std::sort(sorted.begin(), sorted.end());

  Relation out(Schema(mapping.result_predicate, target.attributes()));
  for (const Tuple& t : sorted) {
    if (t.size() != target.arity()) {
      return Status::Internal("mapping " + mapping.id +
                              " produced tuple of wrong arity");
    }
    VADA_RETURN_IF_ERROR(out.InsertUnchecked(t));
  }
  return out;
}

Result<Relation> MappingExecutor::ExecuteUnion(
    const std::vector<Mapping>& mappings, const Schema& target,
    const KnowledgeBase& kb, const std::string& result_name) const {
  Relation out(Schema(result_name, target.attributes()));
  for (const Mapping& m : mappings) {
    Result<Relation> part = Execute(m, target, kb);
    if (!part.ok()) return part.status();
    for (const Tuple& t : part.value().rows()) {
      VADA_RETURN_IF_ERROR(out.InsertUnchecked(t));
    }
  }
  return out;
}

}  // namespace vada
