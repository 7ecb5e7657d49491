#ifndef VADA_KB_SYMBOL_TABLE_H_
#define VADA_KB_SYMBOL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "kb/value.h"

namespace vada::datalog {

/// Dense id of an interned Value in the SymbolTable. Two ids are equal
/// iff the Values they name are equal under Value::operator== (strict:
/// Int(3) != Double(3.0)), which is exactly the equality the join loops
/// use — so the evaluator's hot path compares uint32s and never touches
/// a string (DESIGN.md §5j).
using SymbolId = uint32_t;

/// Sentinel for "no symbol" (never a valid id).
inline constexpr SymbolId kNoSymbol = 0xFFFFFFFFu;

/// Process-wide interning dictionary: Value -> dense uint32 id.
///
/// Invariants (the storage engine's contract, DESIGN.md §5j):
///  * ids are assigned densely from 0 in first-intern order and are
///    NEVER recycled or remapped for the lifetime of the process —
///    snapshot borrowing, copy-on-write detach and WriteGuard rollback
///    all preserve id meaning for free because nothing ever invalidates
///    an id;
///  * `value(id)` is wait-free and safe concurrently with `Intern`:
///    symbols live in fixed-size chunks whose addresses never move, so
///    a reader holding a legitimately obtained id never observes a
///    partially constructed Value;
///  * equal Values always intern to the same id (canonical), including
///    across threads. The one deliberate exception mirrors Value
///    equality itself: Double(NaN) != Double(NaN), so every NaN interns
///    fresh — exactly the semantics the row engine's hash sets had.
///
/// Ids never reach disk: WAL records, checkpoints and CSV exports
/// materialize Values at the KB boundary, so on-disk images are
/// independent of any process's intern order (DESIGN.md §5j).
class SymbolTable {
 public:
  SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  ~SymbolTable();

  /// The process-wide table every datalog::Database uses. A single
  /// shared table is what lets deltas, scratch copies, snapshots and
  /// WriteGuard pre-images compare ids without translation.
  static SymbolTable& Global();

  /// Returns the id of `v`, interning it if new. Thread-safe.
  SymbolId Intern(const Value& v);

  /// The id of `v` if already interned, nullopt otherwise. Never grows
  /// the table — use for containment checks on values that may not
  /// exist anywhere (a miss proves the fact cannot be stored).
  std::optional<SymbolId> Find(const Value& v) const;

  /// The Value behind `id`. Pre-condition: `id` was returned by Intern
  /// on this table. Wait-free; safe concurrently with Intern.
  const Value& value(SymbolId id) const {
    const Chunk* chunk =
        chunks_[id >> kChunkShift].load(std::memory_order_acquire);
    return chunk->values[id & kChunkMask];
  }

  /// Number of interned symbols.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Approximate resident bytes: chunk storage, string payloads and the
  /// intern map. Feeds the `vada_symtab_bytes` gauge (DESIGN.md §5b).
  size_t ApproxBytes() const;

 private:
  // 2^16 Values per chunk, 2^16 chunks: the full 32-bit id space.
  static constexpr size_t kChunkShift = 16;
  static constexpr size_t kChunkMask = (1u << kChunkShift) - 1;
  static constexpr size_t kMaxChunks = 1u << (32 - kChunkShift);

  struct Chunk {
    std::vector<Value> values;  // reserved to capacity up front
  };

  mutable Mutex mutex_;
  std::unordered_map<Value, SymbolId, ValueHash> ids_ VADA_GUARDED_BY(mutex_);
  size_t heap_bytes_ VADA_GUARDED_BY(mutex_) = 0;
  /// Chunk pointers are published with release stores after the chunk's
  /// Value slot is constructed; value() loads with acquire. Readers only
  /// dereference ids they obtained from data that was itself published
  /// (columns, compiled constants), so slot contents are synchronized.
  std::atomic<Chunk*> chunks_[kMaxChunks];
  std::atomic<size_t> size_{0};
};

}  // namespace vada::datalog

#endif  // VADA_KB_SYMBOL_TABLE_H_
