#include "kb/catalog.h"

namespace vada {

const char* RelationRoleName(RelationRole role) {
  switch (role) {
    case RelationRole::kSource:
      return "source";
    case RelationRole::kTarget:
      return "target";
    case RelationRole::kReference:
      return "reference";
    case RelationRole::kMaster:
      return "master";
    case RelationRole::kExample:
      return "example";
    case RelationRole::kMetadata:
      return "metadata";
    case RelationRole::kResult:
      return "result";
  }
  return "?";
}

void Catalog::SetRole(const std::string& relation_name, RelationRole role) {
  auto it = roles_.find(relation_name);
  if (it != roles_.end() && it->second == role) return;
  if (it != roles_.end()) ++role_versions_[static_cast<size_t>(it->second)];
  ++role_versions_[static_cast<size_t>(role)];
  roles_[relation_name] = role;
  if (listener_ != nullptr) listener_->OnRoleSet(relation_name, role);
}

std::optional<RelationRole> Catalog::GetRole(
    const std::string& relation_name) const {
  for (size_t r = 0; read_log_ != nullptr && r < kRelationRoleCount; ++r) {
    read_log_->insert(static_cast<RelationRole>(r));
  }
  auto it = roles_.find(relation_name);
  if (it == roles_.end()) return std::nullopt;
  return it->second;
}

void Catalog::Remove(const std::string& relation_name) {
  auto it = roles_.find(relation_name);
  if (it == roles_.end()) return;
  ++role_versions_[static_cast<size_t>(it->second)];
  roles_.erase(it);
  if (listener_ != nullptr) listener_->OnRoleRemoved(relation_name);
}

std::vector<std::string> Catalog::RelationsWithRole(RelationRole role) const {
  if (read_log_ != nullptr) read_log_->insert(role);
  std::vector<std::string> out;
  for (const auto& [name, r] : roles_) {
    if (r == role) out.push_back(name);
  }
  return out;
}

bool Catalog::IsDataContext(const std::string& relation_name) const {
  std::optional<RelationRole> role = GetRole(relation_name);
  return role.has_value() &&
         (*role == RelationRole::kReference || *role == RelationRole::kMaster ||
          *role == RelationRole::kExample);
}

}  // namespace vada
