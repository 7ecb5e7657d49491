#ifndef VADA_OBS_CHROME_TRACE_H_
#define VADA_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"

namespace vada::obs {

/// One complete ("ph":"X") event of the Chrome trace-event format,
/// loadable in chrome://tracing and Perfetto (ui.perfetto.dev).
struct ChromeTraceEvent {
  std::string name;
  std::string category;
  uint64_t ts_us = 0;   ///< start, microseconds (monotonic process base)
  uint64_t dur_us = 0;  ///< duration, microseconds
  int tid = 1;          ///< lane within the trace view
  /// Extra key/value detail shown in the event's args pane. Values are
  /// emitted as JSON strings.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Accumulates events and serialises the JSON object format:
/// {"traceEvents":[...],"displayTimeUnit":"ms"}.
class ChromeTraceBuilder {
 public:
  void Add(ChromeTraceEvent event) { events_.push_back(std::move(event)); }

  /// Adds every finished span from `collector`. Spans recorded by the
  /// collector's first thread (lane 0) land on `tid`; each further
  /// recording thread gets its own consecutive tid, so concurrent spans
  /// never interleave on one trace lane.
  void AddSpans(const SpanCollector& collector, int tid = 2);

  size_t size() const { return events_.size(); }

  std::string ToJson() const;

 private:
  std::vector<ChromeTraceEvent> events_;
};

}  // namespace vada::obs

#endif  // VADA_OBS_CHROME_TRACE_H_
