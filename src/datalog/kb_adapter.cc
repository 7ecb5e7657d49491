#include "datalog/kb_adapter.h"

#include <set>

#include "datalog/evaluator.h"
#include "datalog/parser.h"

namespace vada::datalog {

std::vector<std::string> ReferencedRelations(const Program& program) {
  std::set<std::string> derived;
  for (const Rule& rule : program.rules) {
    derived.insert(rule.head.predicate);
  }
  std::set<std::string> reads;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if ((lit.kind == Literal::Kind::kAtom ||
           lit.kind == Literal::Kind::kNegatedAtom) &&
          derived.count(lit.atom.predicate) == 0) {
        reads.insert(lit.atom.predicate);
      }
    }
  }
  return std::vector<std::string>(reads.begin(), reads.end());
}

void LoadReferencedRelations(const Program& program, const KnowledgeBase& kb,
                             Database* db) {
  for (const std::string& pred : ReferencedRelations(program)) {
    db->AttachShared(kb.Snapshot(pred));
  }
}

Result<std::vector<Tuple>> QueryKnowledgeBase(
    const Program& program, const KnowledgeBase& kb,
    const std::string& goal_predicate, const EvalOptions& options) {
  Database db;
  LoadReferencedRelations(program, kb, &db);
  return Query(program, &db, goal_predicate, options);
}

Result<std::vector<Tuple>> QueryKnowledgeBase(
    const std::string& source, const KnowledgeBase& kb,
    const std::string& goal_predicate, const EvalOptions& options) {
  Result<Program> program = Parser::Parse(source);
  if (!program.ok()) return program.status();
  return QueryKnowledgeBase(program.value(), kb, goal_predicate, options);
}

}  // namespace vada::datalog
