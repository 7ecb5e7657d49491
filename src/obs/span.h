#ifndef VADA_OBS_SPAN_H_
#define VADA_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace vada::obs {

/// Monotonic nanoseconds since an arbitrary process-local epoch; the
/// common time base for spans and trace events (Chrome traces only need
/// relative timestamps).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One finished span. Depth is the nesting level at open time *on its
/// thread*; lane is a small dense id for the recording thread (0 for the
/// first thread that opened a span on the collector, usually the session
/// thread). Chrome trace viewers reconstruct per-lane trees from nested
/// [start, end) intervals, so spans from concurrent threads must not
/// share a lane — that is exactly what lane separates.
struct SpanRecord {
  std::string name;
  std::string category;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  size_t depth = 0;
  uint64_t lane = 0;
};

/// Collects finished spans for one session. Fully thread-safe: appends
/// take the mutex, and scope (depth/lane) bookkeeping is per-thread, so
/// other threads can record concurrently with the session thread without
/// corrupting each other's nesting.
class SpanCollector {
 public:
  /// What a ScopedSpan needs to remember from open time.
  struct Scope {
    uint64_t lane = 0;
    size_t depth = 0;
  };

  void Record(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Opens a scope on the calling thread: returns the thread's lane and
  /// its nesting depth before the open.
  Scope EnterScope() {
    ThreadState* state = LocalState();
    return Scope{state->lane, state->depth++};
  }
  void LeaveScope() {
    ThreadState* state = LocalState();
    if (state->depth > 0) --state->depth;
  }

  /// Number of distinct threads that have opened spans so far.
  uint64_t lanes() const { return next_lane_.load(std::memory_order_relaxed); }

 private:
  struct ThreadState {
    uint64_t lane = 0;
    size_t depth = 0;
  };

  /// Per-(thread, collector) scope state. Keyed by a never-reused
  /// collector id, not the address, so a collector allocated where a
  /// dead one lived cannot inherit stale lanes. Entries of dead
  /// collectors are pruned opportunistically once the map grows.
  ThreadState* LocalState() {
    thread_local std::unordered_map<uint64_t, ThreadState> states;
    auto [it, inserted] = states.try_emplace(id_);
    if (inserted) {
      it->second.lane = next_lane_.fetch_add(1, std::memory_order_relaxed);
      if (states.size() > 256) {
        for (auto sit = states.begin(); sit != states.end();) {
          bool idle = sit->second.depth == 0 && sit->first != id_;
          sit = idle ? states.erase(sit) : ++sit;
        }
        it = states.find(id_);  // rehash may have moved the entry
      }
    }
    return &it->second;
  }

  static uint64_t NextCollectorId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t id_ = NextCollectorId();
  std::atomic<uint64_t> next_lane_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII timer: times its scope, records the elapsed seconds into an
/// optional histogram and the interval into an optional collector. Both
/// may be null — then the constructor does not even read the clock, which
/// is what makes instrumented code near-free when observability is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector* collector, Histogram* histogram,
             std::string name, std::string category = "")
      : collector_(collector), histogram_(histogram) {
    if (collector_ == nullptr && histogram_ == nullptr) return;
    name_ = std::move(name);
    category_ = std::move(category);
    if (collector_ != nullptr) scope_ = collector_->EnterScope();
    start_ns_ = MonotonicNanos();
  }

  ~ScopedSpan() {
    if (collector_ == nullptr && histogram_ == nullptr) return;
    uint64_t end_ns = MonotonicNanos();
    if (histogram_ != nullptr) {
      histogram_->Observe(static_cast<double>(end_ns - start_ns_) * 1e-9);
    }
    if (collector_ != nullptr) {
      collector_->LeaveScope();
      collector_->Record(
          SpanRecord{std::move(name_), std::move(category_), start_ns_,
                     end_ns, scope_.depth, scope_.lane});
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanCollector* collector_;
  Histogram* histogram_;
  std::string name_;
  std::string category_;
  uint64_t start_ns_ = 0;
  SpanCollector::Scope scope_;
};

}  // namespace vada::obs

#endif  // VADA_OBS_SPAN_H_
