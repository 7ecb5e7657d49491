#ifndef VADA_DATALOG_KB_ADAPTER_H_
#define VADA_DATALOG_KB_ADAPTER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "kb/database.h"
#include "kb/knowledge_base.h"

namespace vada::datalog {

/// The base relations `program` reads: body-atom predicates (positive or
/// negated) that no rule of the program derives, sorted and deduplicated.
/// An evaluation of `program` is a pure function of these relations, so
/// their versions are a sound memo key for its answer (the orchestrator's
/// dependency memo, DESIGN.md §5e).
std::vector<std::string> ReferencedRelations(const Program& program);

/// Borrows exactly ReferencedRelations(program) into `db` from the
/// knowledge base's snapshots (KnowledgeBase::Snapshot): no row is
/// copied or re-interned, and writes to `db` detach copy-on-write.
/// Dependency checks and Vadalog transducers run hundreds of times per
/// wrangle, so each evaluation stays proportional to the data it touches
/// instead of the whole knowledge base.
void LoadReferencedRelations(const Program& program, const KnowledgeBase& kb,
                             Database* db);

/// Evaluates `program` over a snapshot of `kb` and returns the derived
/// facts for `goal_predicate`, sorted. This is the primitive behind
/// transducer input-dependency checks and Vadalog-specified mappings.
Result<std::vector<Tuple>> QueryKnowledgeBase(
    const Program& program, const KnowledgeBase& kb,
    const std::string& goal_predicate,
    const EvalOptions& options = EvalOptions());

/// Parses `source`, then QueryKnowledgeBase. Convenience used by the
/// orchestrator, where dependency queries live as text in transducer
/// declarations (paper §2: "input and output dependencies defined as
/// Datalog queries over the knowledge base").
Result<std::vector<Tuple>> QueryKnowledgeBase(
    const std::string& source, const KnowledgeBase& kb,
    const std::string& goal_predicate,
    const EvalOptions& options = EvalOptions());

}  // namespace vada::datalog

#endif  // VADA_DATALOG_KB_ADAPTER_H_
