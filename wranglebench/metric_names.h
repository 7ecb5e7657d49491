// The metrics the benchmark reports, by name, with units. BENCHMARK.json
// at the repository root lists the same names; the self-test checks
// that the two agree.
#ifndef WRANGLEBENCH_METRIC_NAMES_H_
#define WRANGLEBENCH_METRIC_NAMES_H_

#include <string>
#include <vector>

namespace wranglebench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

/// Reported by an untraced run (--trace 0).
const std::vector<MetricDef>& EndToEndMetrics();
/// Reported by a traced run (--trace 1).
const std::vector<MetricDef>& PerLayerMetrics();

/// The 13 standard transducers, each reported as body.<name>.ms and
/// body.<name>.calls, with the src/ module whose layer metric sums it.
struct TransducerLayer {
  std::string transducer;
  std::string module;  ///< match, mapping, quality, fusion or feedback
};
const std::vector<TransducerLayer>& StandardTransducerLayers();

/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] starting with
/// a letter or digit.
bool ValidMetricName(const std::string& name);

}  // namespace wranglebench

#endif  // WRANGLEBENCH_METRIC_NAMES_H_
