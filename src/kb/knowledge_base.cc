#include "kb/knowledge_base.h"

#include "kb/database.h"
#include "kb/durability.h"
#include "kb/write_guard.h"

namespace vada {

void KnowledgeBase::Bump(const std::string& name) {
  // Per-relation versions are allocated from the global counter, so a
  // relation that is dropped and recreated outside a guard never lands
  // on a version it already used (WriteGuard::Rollback rewinds the
  // counter, so versions are not content keys). The snapshot is dropped
  // here because it is valid only while the rows are unchanged.
  versions_[name] = ++global_version_;
  snapshots_.erase(name);
}

void KnowledgeBase::WillMutate(const std::string& name) {
  if (guard_ != nullptr) guard_->OnMutation(name);
  if (read_log_ != nullptr) {
    auto it = versions_.find(name);
    read_log_->overwritten.emplace(name,
                                   it == versions_.end() ? 0 : it->second);
  }
}

void KnowledgeBase::NoteRead(const std::string& name) const {
  if (read_log_ != nullptr) read_log_->relations.insert(name);
}

Status KnowledgeBase::CreateRelation(Schema schema) {
  VADA_RETURN_IF_ERROR(schema.Validate());
  const std::string name = schema.relation_name();
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation " + name + " already exists");
  }
  WillMutate(name);
  auto emplaced = relations_.emplace(name, Relation(std::move(schema)));
  Bump(name);
  if (durability_ != nullptr) {
    durability_->LogCreateRelation(emplaced.first->second.schema());
  }
  return Status::OK();
}

Status KnowledgeBase::EnsureRelation(const Schema& schema) {
  auto it = relations_.find(schema.relation_name());
  if (it == relations_.end()) return CreateRelation(schema);
  if (!(it->second.schema() == schema)) {
    return Status::FailedPrecondition(
        "relation " + schema.relation_name() +
        " exists with a different schema: " + it->second.schema().ToString() +
        " vs " + schema.ToString());
  }
  return Status::OK();
}

bool KnowledgeBase::HasRelation(const std::string& name) const {
  NoteRead(name);
  return relations_.count(name) > 0;
}

const Relation* KnowledgeBase::FindRelation(const std::string& name) const {
  NoteRead(name);
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

std::shared_ptr<const datalog::Database> KnowledgeBase::Snapshot(
    const std::string& name) const {
  const Relation* rel = FindRelation(name);
  if (rel == nullptr) return nullptr;
  std::shared_ptr<const datalog::Database>& snapshot = snapshots_[name];
  if (snapshot == nullptr) {
    auto built = std::make_shared<datalog::Database>();
    built->LoadRelation(*rel);
    snapshot = std::move(built);
  }
  return snapshot;
}

size_t KnowledgeBase::SnapshotIndexBytes() const {
  size_t bytes = 0;
  for (const auto& [name, snapshot] : snapshots_) {
    bytes += snapshot->IndexBytes();
  }
  return bytes;
}

Result<const Relation*> KnowledgeBase::GetRelation(
    const std::string& name) const {
  const Relation* rel = FindRelation(name);
  if (rel == nullptr) {
    return Status::NotFound("relation " + name + " not in knowledge base");
  }
  return rel;
}

Status KnowledgeBase::Insert(const std::string& relation_name, Tuple tuple) {
  auto it = relations_.find(relation_name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + relation_name +
                            " not in knowledge base");
  }
  WillMutate(relation_name);
  // The insert consumes `tuple`; keep a copy only when it must be logged.
  Tuple logged;
  if (durability_ != nullptr) logged = tuple;
  bool added = false;
  VADA_RETURN_IF_ERROR(it->second.Insert(std::move(tuple), &added));
  if (added) {
    ++facts_added_;
    Bump(relation_name);
    if (durability_ != nullptr) durability_->LogInsert(relation_name, logged);
  }
  return Status::OK();
}

Status KnowledgeBase::Assert(const std::string& relation_name,
                             std::initializer_list<Value> values) {
  return Insert(relation_name, Tuple(values));
}

Status KnowledgeBase::InsertAll(const Relation& relation) {
  VADA_RETURN_IF_ERROR(EnsureRelation(relation.schema()));
  WillMutate(relation.name());
  auto it = relations_.find(relation.name());
  bool any = false;
  for (const Tuple& row : relation.rows()) {
    bool added = false;
    VADA_RETURN_IF_ERROR(it->second.Insert(row, &added));
    if (added) {
      ++facts_added_;
      if (durability_ != nullptr) durability_->LogInsert(relation.name(), row);
    }
    any = any || added;
  }
  if (any) Bump(relation.name());
  return Status::OK();
}

Status KnowledgeBase::Retract(const std::string& relation_name,
                              const Tuple& tuple) {
  auto it = relations_.find(relation_name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + relation_name +
                            " not in knowledge base");
  }
  WillMutate(relation_name);
  if (it->second.Erase(tuple)) {
    ++facts_removed_;
    Bump(relation_name);
    if (durability_ != nullptr) durability_->LogRetract(relation_name, tuple);
  }
  return Status::OK();
}

Status KnowledgeBase::ClearRelation(const std::string& relation_name) {
  auto it = relations_.find(relation_name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + relation_name +
                            " not in knowledge base");
  }
  if (!it->second.empty()) {
    WillMutate(relation_name);
    facts_removed_ += it->second.size();
    it->second.Clear();
    Bump(relation_name);
    if (durability_ != nullptr) durability_->LogClear(relation_name);
  }
  return Status::OK();
}

Status KnowledgeBase::DropRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + name + " not in knowledge base");
  }
  WillMutate(name);
  facts_removed_ += it->second.size();
  relations_.erase(it);
  versions_.erase(name);
  snapshots_.erase(name);
  // Catalog.Remove notifies the durability listener itself (a
  // kCatalogRole tombstone), then the drop record follows it.
  catalog_.Remove(name);
  ++global_version_;
  if (durability_ != nullptr) durability_->LogDrop(name);
  return Status::OK();
}

Status KnowledgeBase::ReplaceRelation(const Relation& relation) {
  auto it = relations_.find(relation.name());
  if (it == relations_.end()) {
    VADA_RETURN_IF_ERROR(CreateRelation(relation.schema()));
    it = relations_.find(relation.name());
  } else if (!(it->second.schema() == relation.schema())) {
    return Status::FailedPrecondition(
        "relation " + relation.name() + " exists with a different schema");
  }
  WillMutate(relation.name());
  facts_removed_ += it->second.size();
  facts_added_ += relation.size();
  it->second = relation;
  Bump(relation.name());
  if (durability_ != nullptr) {
    // Logical form of a replace: clear, then the new row set. The
    // relation's creation (when it was absent) was logged above by
    // CreateRelation.
    durability_->LogClear(relation.name());
    for (const Tuple& row : relation.rows()) {
      durability_->LogInsert(relation.name(), row);
    }
  }
  return Status::OK();
}

Status KnowledgeBase::ReplaceRelationIfChanged(const Relation& relation,
                                               bool* changed) {
  NoteRead(relation.name());
  auto it = relations_.find(relation.name());
  if (it != relations_.end() && it->second.schema() == relation.schema() &&
      it->second.size() == relation.size()) {
    bool same = true;
    for (const Tuple& row : relation.rows()) {
      if (!it->second.Contains(row)) {
        same = false;
        break;
      }
    }
    if (same) {
      if (changed != nullptr) *changed = false;
      return Status::OK();
    }
  }
  if (changed != nullptr) *changed = true;
  // A re-run writes the same rows, so this write is the read above (at
  // its post-step version), not an overwrite that re-runs the step.
  const bool overwritten = read_log_ != nullptr &&
                           read_log_->overwritten.count(relation.name()) > 0;
  VADA_RETURN_IF_ERROR(ReplaceRelation(relation));
  if (!overwritten && read_log_ != nullptr) {
    read_log_->overwritten.erase(relation.name());
  }
  return Status::OK();
}

uint64_t KnowledgeBase::relation_version(const std::string& name) const {
  NoteRead(name);
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

size_t KnowledgeBase::TotalRows() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

std::vector<std::string> KnowledgeBase::RelationNames() const {
  if (read_log_ != nullptr) read_log_->whole_kb = true;
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) out.push_back(name);
  return out;
}

}  // namespace vada
