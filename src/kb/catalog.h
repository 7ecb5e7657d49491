#ifndef VADA_KB_CATALOG_H_
#define VADA_KB_CATALOG_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace vada {

/// The role a relation plays in the wrangling process. Roles are what
/// transducer input dependencies quantify over ("source schemas exist",
/// "the target has reference data", ...), mirroring the paper's user
/// context / data context / source / target distinction.
enum class RelationRole {
  kSource = 0,      ///< extracted source data (e.g. Rightmove)
  kTarget,          ///< the user-declared target schema
  kReference,       ///< data context: reference data (complete value lists)
  kMaster,          ///< data context: master data (entities of interest)
  kExample,         ///< data context: example instances
  kMetadata,        ///< transducer-produced metadata (matches, metrics, ...)
  kResult,          ///< wrangled result instances
};

constexpr size_t kRelationRoleCount =
    static_cast<size_t>(RelationRole::kResult) + 1;

const char* RelationRoleName(RelationRole role);

/// Observer of catalog role changes. The durability layer implements
/// this to write-ahead-log role mutations without touching the many
/// `kb.catalog().SetRole(...)` call sites. Snapshot()/Restore() — the
/// WriteGuard rollback path — deliberately bypass the listener: a
/// rollback is not new history, it un-happens logged history.
class CatalogListener {
 public:
  virtual ~CatalogListener() = default;
  virtual void OnRoleSet(const std::string& relation_name,
                         RelationRole role) = 0;
  virtual void OnRoleRemoved(const std::string& relation_name) = 0;
};

/// Registry mapping relation names to their wrangling role. Owned by the
/// KnowledgeBase; separate so it can be inspected/tested in isolation.
class Catalog {
 public:
  void SetRole(const std::string& relation_name, RelationRole role);
  std::optional<RelationRole> GetRole(const std::string& relation_name) const;
  void Remove(const std::string& relation_name);

  /// At most one listener; nullptr detaches. Only effective mutations
  /// notify (SetRole to the current role and Remove of an absent entry
  /// are silent no-ops).
  void SetListener(CatalogListener* listener) { listener_ = listener; }

  /// Relation names with the given role, sorted.
  std::vector<std::string> RelationsWithRole(RelationRole role) const;

  /// Membership counter of `role`: moves on every effective SetRole or
  /// Remove that changes who has `role`, and on every Restore.
  uint64_t role_version(RelationRole role) const {
    return role_versions_[static_cast<size_t>(role)];
  }

  /// While non-null, RelationsWithRole adds its role to `*log` and
  /// GetRole adds every role (any may gain the relation). Not owned.
  void SetReadLog(std::set<RelationRole>* log) { read_log_ = log; }

  /// True if `relation_name` provides data-context information
  /// (reference, master or example role).
  bool IsDataContext(const std::string& relation_name) const;

  /// Point-in-time copy of / wholesale replacement for the role map.
  /// Used by WriteGuard to roll the catalog back together with the
  /// relations it describes.
  std::map<std::string, RelationRole> Snapshot() const { return roles_; }
  void Restore(std::map<std::string, RelationRole> roles) {
    roles_ = std::move(roles);
    for (uint64_t& v : role_versions_) ++v;
  }

 private:
  std::map<std::string, RelationRole> roles_;
  std::array<uint64_t, kRelationRoleCount> role_versions_{};
  CatalogListener* listener_ = nullptr;  // not owned
  std::set<RelationRole>* read_log_ = nullptr;  // not owned
};

}  // namespace vada

#endif  // VADA_KB_CATALOG_H_
