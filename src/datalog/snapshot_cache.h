#ifndef VADA_DATALOG_SNAPSHOT_CACHE_H_
#define VADA_DATALOG_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "datalog/database.h"
#include "kb/knowledge_base.h"

namespace vada::datalog {

/// Version-keyed cache of per-relation `Database` snapshots.
///
/// Mapping execution re-runs every mapping on every pass, and each run
/// reads its source relations out of the knowledge base. Between passes
/// only the relations a transducer just wrote actually change, so most
/// of that copying is redundant — this cache keeps one immutable
/// single-relation snapshot per relation, keyed by the KB's per-relation
/// version counter, and rebuilds an entry only when its version moved
/// (WranglingState::mapping_source_cache).
///
/// Keying invariant: a cached snapshot for (name, v) is byte-equivalent
/// to the relation's contents whenever `kb.relation_version(name) == v`.
/// This holds because every KnowledgeBase mutation bumps the relation's
/// version, versions are allocated from the global counter (so a
/// dropped-and-recreated relation can never reuse an old version), and
/// `WriteGuard::Rollback` restores contents and version counters
/// together.
///
/// Composite join indexes (Database::EnsureBoundIndex) live on the
/// snapshot databases themselves, so every evaluation borrowing one
/// snapshot shares one lazily built index; dropping or rebuilding a
/// snapshot drops its indexes with it.
///
/// Thread-safe: `Get` may be called concurrently; snapshots are
/// returned as `shared_ptr<const Database>` and are immutable after
/// construction.
class SnapshotCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  SnapshotCache() = default;

  /// Returns an immutable snapshot of relation `name` at its current
  /// version, building and caching it on miss. Returns nullptr when the
  /// relation does not exist (negative result is not cached: absence is
  /// cheap to re-check and has no version to key on).
  std::shared_ptr<const Database> Get(const KnowledgeBase& kb,
                                      const std::string& name);

  /// Number of relations currently cached.
  size_t size() const;

  /// Approximate resident bytes of the composite join indexes built on
  /// the cached snapshots (the only place persistent composite indexes
  /// live — per-evaluation databases are discarded with their run).
  size_t ApproxIndexBytes() const;

  Stats stats() const;

 private:
  struct Entry {
    uint64_t version = 0;
    std::shared_ptr<const Database> snapshot;
  };

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ VADA_GUARDED_BY(mutex_);
  Stats stats_ VADA_GUARDED_BY(mutex_);
};

}  // namespace vada::datalog

#endif  // VADA_DATALOG_SNAPSHOT_CACHE_H_
