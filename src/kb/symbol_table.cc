#include "kb/symbol_table.h"

namespace vada::datalog {

SymbolTable::SymbolTable() {
  for (auto& slot : chunks_) slot.store(nullptr, std::memory_order_relaxed);
}

SymbolTable::~SymbolTable() {
  for (auto& slot : chunks_) delete slot.load(std::memory_order_acquire);
}

SymbolTable& SymbolTable::Global() {
  // Leaked intentionally: ids must stay valid for the whole process,
  // including during static destruction of late observers.
  static SymbolTable* table = new SymbolTable();
  return *table;
}

SymbolId SymbolTable::Intern(const Value& v) {
  MutexLock lock(mutex_);
  auto it = ids_.find(v);
  if (it != ids_.end()) return it->second;
  size_t id = size_.load(std::memory_order_relaxed);
  size_t chunk_index = id >> kChunkShift;
  Chunk* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    // All slots are pre-constructed (null Values) so readers racing on a
    // freshly published chunk never touch vector growth machinery.
    chunk->values.resize(size_t{1} << kChunkShift);
  }
  chunk->values[id & kChunkMask] = v;
  // Publish the chunk (and, transitively, the slot just written) before
  // the id can escape through the map or the size counter.
  chunks_[chunk_index].store(chunk, std::memory_order_release);
  size_.store(id + 1, std::memory_order_release);
  ids_.emplace(v, static_cast<SymbolId>(id));
  heap_bytes_ += v.ApproxBytes();
  return static_cast<SymbolId>(id);
}

std::optional<SymbolId> SymbolTable::Find(const Value& v) const {
  MutexLock lock(mutex_);
  auto it = ids_.find(v);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

size_t SymbolTable::ApproxBytes() const {
  MutexLock lock(mutex_);
  size_t chunks = (size_.load(std::memory_order_relaxed) + kChunkMask) >>
                  kChunkShift;
  size_t bytes = sizeof(SymbolTable) +
                 chunks * ((size_t{1} << kChunkShift) * sizeof(Value) +
                           sizeof(Chunk));
  // Interned payloads are stored twice (chunk slot + map key); count
  // both, like the row engine counted facts + dedup set.
  bytes += 2 * heap_bytes_ - size_.load(std::memory_order_relaxed) *
                                 sizeof(Value);
  bytes += ids_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace vada::datalog
