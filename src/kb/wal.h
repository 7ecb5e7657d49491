#ifndef VADA_KB_WAL_H_
#define VADA_KB_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/catalog.h"
#include "kb/schema.h"
#include "kb/tuple.h"

namespace vada::obs {
class Counter;
class Histogram;
}  // namespace vada::obs

namespace vada {

/// Append-only, segment-rotated binary write-ahead log of the knowledge
/// base's logical mutations (DESIGN.md §5i). Each record is framed as
///
///   u32 payload_length | u32 crc32(payload) | payload
///
/// and each segment file (`wal-<seq>.log`) starts with a fixed header
/// (magic, format version, segment sequence number). A reader stops at
/// the first frame that fails its length or CRC check — a torn tail left
/// by a crash is detected, reported and discarded, never replayed.
///
/// Transaction semantics mirror WriteGuard: records carry a transaction
/// id; id 0 means "auto-committed standalone mutation" (a KB mutation
/// outside any guard), non-zero ids are bracketed by kTxnBegin and
/// either kCommit (replay applies the records) or kAbort / nothing
/// (replay discards them). The WAL thereby recovers exactly the
/// committed transaction prefix of the pre-crash history.

/// When the log is made durable (fsync'd) relative to commits.
enum class FsyncPolicy {
  kNone = 0,       ///< never fsync (OS flush only); fastest, least durable
  kEveryCommit,    ///< fsync at every commit boundary
  kInterval,       ///< fsync at the first commit after `fsync_interval_ms`
};

const char* FsyncPolicyName(FsyncPolicy policy);

/// What one WAL record describes.
enum class WalRecordType : uint8_t {
  kTxnBegin = 1,        ///< start of guarded transaction `txn_id`
  kCommit = 2,          ///< transaction `txn_id` committed
  kAbort = 3,           ///< transaction `txn_id` rolled back
  kCreateRelation = 4,  ///< schema created (payload: schema)
  kInsert = 5,          ///< one tuple inserted into `relation`
  kRetract = 6,         ///< one tuple removed from `relation`
  kClear = 7,           ///< all rows of `relation` removed
  kDrop = 8,            ///< `relation` (rows, schema, role) removed
  kCatalogRole = 9,     ///< catalog role set (or removed) for `relation`
};

const char* WalRecordTypeName(WalRecordType type);

/// One decoded log record. Which fields are meaningful depends on `type`
/// (see WalRecordType); unused fields are default-initialised.
struct WalRecord {
  WalRecordType type = WalRecordType::kTxnBegin;
  uint64_t txn_id = 0;      ///< 0 = standalone auto-committed mutation
  std::string relation;     ///< kInsert/kRetract/kClear/kDrop/kCatalogRole
  Tuple tuple;              ///< kInsert/kRetract
  Schema schema;            ///< kCreateRelation
  bool role_removed = false;                    ///< kCatalogRole
  RelationRole role = RelationRole::kMetadata;  ///< kCatalogRole

  /// Whether replaying this record completes a committed unit of work:
  /// a commit record, or any standalone (txn 0) mutation.
  bool IsCommitBoundary() const {
    return type == WalRecordType::kCommit ||
           (txn_id == 0 && type != WalRecordType::kTxnBegin &&
            type != WalRecordType::kAbort);
  }

  /// One-line human rendering ("[txn 3] insert listing ("a", 1)").
  std::string ToString() const;
};

/// A location in the log: segment sequence number plus byte offset
/// within that segment. Ordered lexicographically.
struct WalPosition {
  uint64_t segment = 0;
  uint64_t offset = 0;

  friend bool operator==(const WalPosition& a, const WalPosition& b) {
    return a.segment == b.segment && a.offset == b.offset;
  }
  friend bool operator<(const WalPosition& a, const WalPosition& b) {
    return a.segment != b.segment ? a.segment < b.segment
                                  : a.offset < b.offset;
  }
  std::string ToString() const;
};

/// Deterministic crash simulation for the durability soak (the WAL/
/// checkpoint counterpart of the PR-3 FaultInjector). Every physical
/// side effect on durable state — a record append, an fsync, a
/// checkpoint file write or rename — first asks the injector for
/// permission. Operation number `kill_after_ops` is the kill point: a
/// byte write lands only partially (`torn_fraction` of its bytes, as a
/// torn write) and every later operation is dropped entirely, exactly
/// as if the process had been SIGKILLed at that instant. The workload
/// then observes kDataLoss ("simulated crash"), stops, and the test
/// recovers from what reached disk.
class CrashInjector {
 public:
  struct Schedule {
    /// 1-based index of the physical operation that dies; ops before it
    /// succeed in full. Default: never.
    uint64_t kill_after_ops = std::numeric_limits<uint64_t>::max();
    /// Fraction of the dying write's bytes that still land (0 = nothing,
    /// 1 = the full buffer lands and only later ops are lost).
    double torn_fraction = 0.0;
  };

  CrashInjector() = default;
  explicit CrashInjector(Schedule schedule) : schedule_(schedule) {}

  /// Called before writing `want` bytes; returns how many may land.
  size_t AdmitWrite(size_t want);

  /// Called before a non-write side effect (fsync, rename, file create);
  /// false means the operation must not happen.
  bool AdmitOp();

  /// Whether the simulated process has died.
  bool crashed() const { return crashed_; }

  /// Physical operations admitted so far (count a clean run to size
  /// kill_after_ops schedules).
  uint64_t ops() const { return ops_; }

 private:
  Schedule schedule_;
  uint64_t ops_ = 0;
  bool crashed_ = false;
};

/// Options of one WalWriter. `directory` must exist.
struct WalOptions {
  std::string directory;
  FsyncPolicy fsync = FsyncPolicy::kEveryCommit;
  double fsync_interval_ms = 50.0;  ///< FsyncPolicy::kInterval only
  /// Rotate to a new segment when the current one would exceed this.
  size_t segment_bytes = 4u << 20;
  CrashInjector* crash = nullptr;  ///< tests only; nullptr in production
};

/// Appender. Not thread-safe: the KB it logs for is itself confined to
/// one mutating thread.
class WalWriter {
 public:
  /// Opens a fresh segment with sequence number `first_segment` (which
  /// must be greater than every existing segment in the directory).
  static Result<std::unique_ptr<WalWriter>> Open(WalOptions options,
                                                 uint64_t first_segment);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record (rotating first if the segment is full). Applies
  /// the fsync policy when the record is a commit boundary.
  Status Append(const WalRecord& record);

  /// fsyncs the current segment now, regardless of policy.
  Status Sync();

  /// Closes the current segment and starts a new one; returns the
  /// position of the new segment's first record. Checkpoints rotate so
  /// their manifest can reference a clean segment boundary.
  Result<WalPosition> Rotate();

  /// Deletes all segments with sequence < `segment` (they are covered by
  /// a checkpoint). The live byte count drops accordingly.
  Status DeleteSegmentsBefore(uint64_t segment);

  /// Position one past the last appended byte.
  WalPosition position() const { return {segment_seq_, segment_offset_}; }

  /// Total bytes across all live (non-deleted) segments.
  uint64_t live_bytes() const { return live_bytes_; }
  /// Bytes appended since the writer was opened.
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t appended_records() const { return appended_records_; }

  /// Observability hooks (§5b): may be nullptr.
  void SetMetrics(obs::Counter* records_total, obs::Counter* bytes_total,
                  obs::Histogram* fsync_seconds);

 private:
  WalWriter(WalOptions options, uint64_t first_segment);

  Status OpenSegment(uint64_t seq);
  Status CloseSegment();
  Status WriteRaw(const char* data, size_t size);
  std::string SegmentPath(uint64_t seq) const;

  WalOptions options_;
  std::FILE* file_ = nullptr;
  uint64_t segment_seq_ = 0;
  uint64_t segment_offset_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t appended_bytes_ = 0;
  uint64_t appended_records_ = 0;
  /// Oldest live segment (everything before was deleted by truncation).
  uint64_t oldest_segment_ = 0;
  double last_sync_ms_ = 0.0;  ///< monotonic clock, kInterval bookkeeping
  Status sticky_error_;        ///< first IO failure; everything after fails
  obs::Counter* records_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Histogram* fsync_metric_ = nullptr;
};

/// Statistics of one log scan.
struct WalReadStats {
  uint64_t records = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t bytes = 0;
  /// The log ended in an invalid frame (short read / bad CRC / bad
  /// header) instead of a clean end-of-file.
  bool torn_tail = false;
  std::string torn_reason;
  /// Position one past the last valid record (where an appender should
  /// truncate and resume).
  WalPosition end;
};

/// Sorted sequence numbers of the `wal-<seq>.log` segments in `directory`.
std::vector<uint64_t> ListWalSegments(const std::string& directory);

/// Scans every record from `from` (inclusive) to the log end, invoking
/// `fn` per valid record with its position. Returns non-OK only for
/// callback errors or an unreadable directory; torn tails are reported
/// through `stats`, not as errors. `fn` may be empty (verify-only scan).
Status ScanWal(const std::string& directory, WalPosition from,
               const std::function<Status(const WalRecord&,
                                          const WalPosition&)>& fn,
               WalReadStats* stats);

/// Truncates the torn tail a scan found: the last valid segment is cut
/// at `stats.end` and every later segment file is deleted.
Status TruncateWalAfter(const std::string& directory, const WalReadStats& stats);

/// Record codec, exposed for tests and vada_waldump.
std::string EncodeWalRecord(const WalRecord& record);
Result<WalRecord> DecodeWalRecord(std::string_view payload);

}  // namespace vada

#endif  // VADA_KB_WAL_H_
