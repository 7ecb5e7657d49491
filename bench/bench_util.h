#ifndef VADA_BENCH_BENCH_UTIL_H_
#define VADA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "kb/schema.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"

namespace vada::bench {

/// Milliseconds elapsed while running `fn`.
template <typename Fn>
double TimeMs(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Summary of repeated samples: the median with its spread.
struct Measurement {
  double median = 0;
  double p10 = 0;
  double p90 = 0;
  double mad = 0;  ///< median absolute deviation from the median
};

/// Quantile `q` in [0, 1] of sorted `v`, linearly interpolated.
inline double Quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  double at = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(at));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Summarizes `samples`: median, p10/p90 and the median absolute
/// deviation.
inline Measurement Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Measurement m;
  m.median = Quantile(samples, 0.5);
  m.p10 = Quantile(samples, 0.1);
  m.p90 = Quantile(samples, 0.9);
  std::vector<double> deviations;
  for (double x : samples) deviations.push_back(std::fabs(x - m.median));
  std::sort(deviations.begin(), deviations.end());
  m.mad = Quantile(deviations, 0.5);
  return m;
}

/// Calls `fn` `warmup` times, discarding the results, then `reps` times,
/// and summarizes the samples it returns. `fn` returns one sample (for
/// example TimeMs over the part of a run worth timing), so per-rep
/// setup stays out of the measurement.
template <typename Fn>
Measurement Measure(size_t reps, size_t warmup, Fn&& fn) {
  for (size_t i = 0; i < warmup; ++i) (void)fn();
  std::vector<double> samples;
  for (size_t i = 0; i < reps; ++i) samples.push_back(fn());
  return Summarize(std::move(samples));
}

/// Measure for several configurations compared with each other: every
/// rep (and every warm-up) runs each of `fns` once, in order, so drift
/// on a shared host lands on all of them alike instead of on whichever
/// ran last. Returns one Measurement per fn.
inline std::vector<Measurement> MeasureInterleaved(
    size_t reps, size_t warmup,
    const std::vector<std::function<double()>>& fns) {
  for (size_t i = 0; i < warmup; ++i) {
    for (const auto& fn : fns) (void)fn();
  }
  std::vector<std::vector<double>> samples(fns.size());
  for (size_t i = 0; i < reps; ++i) {
    for (size_t k = 0; k < fns.size(); ++k) samples[k].push_back(fns[k]());
  }
  std::vector<Measurement> out;
  for (std::vector<double>& s : samples) out.push_back(Summarize(std::move(s)));
  return out;
}

/// Fixed-width table printer for experiment output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    auto print_row = [&widths](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t i = 0; i < widths.size(); ++i) {
        std::printf(" %-*s |", static_cast<int>(widths[i]),
                    i < row.size() ? row[i].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t w : widths) {
      std::printf("%s|", std::string(w + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 3) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// "median [p10, p90]" of `m`.
inline std::string FmtSpread(const Measurement& m, int precision = 1) {
  return Fmt(m.median, precision) + " [" + Fmt(m.p10, precision) + ", " +
         Fmt(m.p90, precision) + "]";
}

/// Machine-readable bench output: collects named scalar results (wall
/// times, ns/op, counters) and writes them as BENCH_<name>.json so every
/// bench run extends the perf trajectory. Values keep insertion order.
///
///   BenchReport report("orchestration");
///   report.Add("bootstrap_ms", boot_ms);
///   report.AddNsPerOp("step_ns_per_op", boot_ms, stats.steps);
///   report.AddSnapshot(session.MetricsReport().snapshot);
///   report.WriteJson();  // honours $VADA_BENCH_DIR, defaults to cwd
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value) {
    entries_.push_back({key, value});
  }

  /// Records `m`'s median under `key`, plus `key`_p10/_p90/_mad.
  void AddMeasurement(const std::string& key, const Measurement& m) {
    Add(key, m.median);
    Add(key + "_p10", m.p10);
    Add(key + "_p90", m.p90);
    Add(key + "_mad", m.mad);
  }

  /// Records `total_ms` over `iterations` as nanoseconds per operation.
  void AddNsPerOp(const std::string& key, double total_ms, size_t iterations) {
    if (iterations == 0) return;
    Add(key, total_ms * 1e6 / static_cast<double>(iterations));
  }

  /// Folds a metrics snapshot in: counters and gauges by name (labels
  /// joined with '/'), histograms as <name>_count.
  void AddSnapshot(const obs::MetricsSnapshot& snapshot) {
    for (const obs::MetricSample& s : snapshot.samples) {
      std::string key = s.name;
      for (const auto& [k, v] : s.labels) key += "/" + v;
      if (s.kind == obs::MetricKind::kHistogram) {
        Add(key + "_count", static_cast<double>(s.count));
      } else {
        Add(key, s.value);
      }
    }
  }

  /// Writes BENCH_<name>.json into $VADA_BENCH_DIR (default: cwd).
  /// Returns false (after a warning) when the file cannot be written —
  /// benches still print their human-readable tables regardless.
  /// Every report is stamped with the run's peak RSS and the machine's
  /// hardware thread count, so perf-trajectory numbers can be compared
  /// across hosts and memory regressions show up next to the timings.
  bool WriteJson() const {
    const char* dir = std::getenv("VADA_BENCH_DIR");
    std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : "") +
        "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::vector<std::pair<std::string, double>> entries = entries_;
    entries.emplace_back(
        "peak_rss_bytes",
        static_cast<double>(obs::SampleProcessMemory().peak_rss_bytes));
    entries.emplace_back(
        "hardware_threads",
        static_cast<double>(std::thread::hardware_concurrency()));
    out << "{\"bench\":\"" << obs::JsonEscape(name_) << "\",\"entries\":{";
    bool first = true;
    for (const auto& [key, value] : entries) {
      if (!first) out << ",";
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      out << "\"" << obs::JsonEscape(key) << "\":" << buf;
    }
    out << "}}\n";
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// The paper's target schema (Figure 2(b)).
inline Schema PaperTargetSchema() {
  return Schema::Untyped("property", {"type", "description", "street",
                                      "postcode", "bedrooms", "price",
                                      "crimerank"});
}

/// A standard demonstration-scale scenario instance.
struct Scenario {
  GroundTruth truth;
  Relation rightmove{Schema()};
  Relation onthemarket{Schema()};
  Relation deprivation{Schema()};
  Relation address{Schema()};
};

inline Scenario MakeScenario(uint64_t seed, size_t properties = 300,
                             size_t postcodes = 40) {
  Scenario s;
  PropertyUniverseOptions uopts;
  uopts.num_properties = properties;
  uopts.num_postcodes = postcodes;
  uopts.seed = seed;
  s.truth = GeneratePropertyUniverse(uopts);
  // Asymmetric extraction quality: rightmove's wrapper has the paper's
  // bedroom-area bug much more often than onthemarket's. Feedback on
  // wrong bedroom counts can then do its job — shift trust between
  // sources — rather than condemning the attribute everywhere.
  ExtractionErrorOptions rm;
  rm.seed = seed * 31 + 1;
  rm.coverage = 0.75;
  rm.bedrooms_area_rate = 0.18;
  s.rightmove = ExtractRightmove(s.truth, rm);
  ExtractionErrorOptions otm;
  otm.seed = seed * 31 + 2;
  otm.coverage = 0.6;
  otm.bedrooms_area_rate = 0.04;
  s.onthemarket = ExtractOnthemarket(s.truth, otm);
  s.deprivation = GenerateDeprivation(s.truth);
  s.address = GenerateAddressReference(s.truth);
  return s;
}

}  // namespace vada::bench

#endif  // VADA_BENCH_BENCH_UTIL_H_
