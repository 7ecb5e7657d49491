// Spans the benchmark records from outside the program: around the
// session's public calls, and around every transducer Execute through
// WranglerConfig::transducer_decorator. Spans stay in memory and are
// written out when the run ends.
#ifndef WRANGLEBENCH_TRACING_H_
#define WRANGLEBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "transducer/transducer.h"

namespace wranglebench {

/// Span kinds. An op span is the root of one op; input and run spans
/// are its children; body spans are children of the run span whose
/// orchestration executed them.
inline constexpr const char* kOpSpan = "op";
inline constexpr const char* kInputSpan = "input";
inline constexpr const char* kRunSpan = "run";
inline constexpr const char* kBodySpan = "body";

struct Span {
  uint64_t id = 0;
  uint64_t op = 0;      ///< shared by every span of one op
  uint64_t parent = 0;  ///< 0 for an op span
  const char* kind = kOpSpan;
  std::string detail;   ///< input call or transducer name
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span in the current op and returns its id (never 0).
  uint64_t Begin(const char* kind, std::string detail, uint64_t parent);
  void End(uint64_t id);

  /// Starts op `op`: later spans carry its id.
  void set_op(uint64_t op) { op_ = op; }
  /// The run span body spans attach to (0 outside a Run).
  void set_current_run(uint64_t run) { current_run_ = run; }
  uint64_t current_run() const { return current_run_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line. False when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  uint64_t op_ = 0;
  uint64_t current_run_ = 0;
};

/// Wraps each transducer so every Execute is a body span under the
/// recorder's current run span. The wrapper keeps the transducer's name,
/// activity, input dependency and Vadalog program, and returns the
/// wrapped Execute's status unchanged.
vada::TransducerRegistry::Decorator TimingDecorator(SpanRecorder* recorder);

/// Per-layer time sums over the spans of ops, in milliseconds. Spans
/// recorded outside any op (op id 0: set-up, and the bootstrap that
/// opens each event epoch) are left out.
struct LayerTimes {
  std::map<std::string, double> body_ms;    ///< by transducer
  std::map<std::string, size_t> body_calls;  ///< by transducer
  double run_ms = 0;
  double input_ms = 0;
  /// Run spans' self time: run time not covered by a body span.
  double orchestration_ms = 0;
  /// Body spans whose parent is not a run span of the same op.
  size_t orphan_bodies = 0;
};

LayerTimes SumLayers(const std::vector<Span>& spans);

}  // namespace wranglebench

#endif  // WRANGLEBENCH_TRACING_H_
