#include "datalog/snapshot_cache.h"

#include <utility>

namespace vada::datalog {

std::shared_ptr<const Database> SnapshotCache::Get(const KnowledgeBase& kb,
                                                   const std::string& name) {
  const uint64_t version = kb.relation_version(name);
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.version == version) {
      ++stats_.hits;
      return it->second.snapshot;
    }
  }

  // Miss: build outside the lock so a large copy does not serialize
  // concurrent lookups of other relations. Two callers racing on the
  // same relation build identical snapshots (the KB must not be mutated
  // concurrently with Get); last insert wins.
  const Relation* rel = kb.FindRelation(name);
  if (rel == nullptr) {
    MutexLock lock(mutex_);
    ++stats_.misses;
    return nullptr;
  }
  auto snapshot = std::make_shared<Database>();
  snapshot->LoadRelation(*rel);

  MutexLock lock(mutex_);
  ++stats_.misses;
  entries_[name] = Entry{version, snapshot};
  return snapshot;
}

size_t SnapshotCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

size_t SnapshotCache::ApproxIndexBytes() const {
  MutexLock lock(mutex_);
  size_t bytes = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.snapshot != nullptr) bytes += entry.snapshot->IndexBytes();
  }
  return bytes;
}

SnapshotCache::Stats SnapshotCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace vada::datalog
