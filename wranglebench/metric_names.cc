#include "metric_names.h"

#include <cctype>

namespace wranglebench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", "lower"},
      {"run_ms_p50", "ms", "lower"},
      {"run_ms_p90", "ms", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"result_overall", "score", "higher"},
      {"ok_op_ratio", "ratio", "higher"},
  };
  return kMetrics;
}

const std::vector<TransducerLayer>& StandardTransducerLayers() {
  static const std::vector<TransducerLayer> kLayers = {
      {"schema_matching", "match"},
      {"instance_matching", "match"},
      {"match_combination", "match"},
      {"mapping_generation", "mapping"},
      {"mapping_execution", "mapping"},
      {"mapping_repair", "mapping"},
      {"source_selection", "mapping"},
      {"mapping_selection", "mapping"},
      {"cfd_learning", "quality"},
      {"quality_metrics", "quality"},
      {"source_quality", "quality"},
      {"fusion", "fusion"},
      {"feedback_propagation", "feedback"},
  };
  return kLayers;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m = {
        {"match.ms", "ms", "lower"},
        {"mapping.ms", "ms", "lower"},
        {"mapping.execution_ms", "ms", "lower"},
        {"fusion.ms", "ms", "lower"},
        {"quality.ms", "ms", "lower"},
        {"feedback.ms", "ms", "lower"},
        {"transducer.run_ms", "ms", "lower"},
        {"transducer.orchestration_ms", "ms", "lower"},
        {"wrangler.input_ms", "ms", "lower"},
    };
    for (const TransducerLayer& t : StandardTransducerLayers()) {
      m.push_back({"body." + t.transducer + ".ms", "ms", "lower"});
      m.push_back({"body." + t.transducer + ".calls", "count", "lower"});
    }
    std::vector<MetricDef> rest = {
        {"transducer.steps", "count", "lower"},
        {"transducer.effective_steps", "count", "lower"},
        {"transducer.effective_step_ratio", "ratio", "higher"},
        {"transducer.dependency_checks", "count", "lower"},
        {"datalog.evaluations", "count", "lower"},
        {"datalog.join_work", "count", "lower"},
        {"datalog.facts_derived", "count", "lower"},
        {"datalog.index_builds", "count", "lower"},
        {"kb.facts_added", "count", "lower"},
        {"kb.facts_removed", "count", "lower"},
        {"kb.wal_records", "count", "lower"},
        {"kb.wal_bytes", "bytes", "lower"},
        {"datalog.symtab_bytes", "bytes", "lower"},
        {"datalog.index_bytes", "bytes", "lower"},
        {"kb.relation_bytes", "bytes", "lower"},
        {"trace.traced_run_ms_p50", "ms", "lower"},
        {"trace.untraced_run_ms_p50", "ms", "lower"},
        {"trace.overhead_ratio", "ratio", "lower"},
        {"host.calibration_ms", "ms_raw", "lower"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name[0])) == 0) return false;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace wranglebench
