// The pay-as-you-go wrangling benchmark. Drives the public
// WranglingSession API through one seeded workload in a closed loop (one
// client, session threads = 1), checks the outputs, and prints one JSON
// object as the last line of standard output.
//
//   wranglebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --workdir <dir>
//
// With --trace 0 the JSON carries the end-to-end metrics. With --trace 1
// the timed loop runs with spans around every public call and every
// transducer Execute; the same ops are then replayed untraced, and the
// JSON carries the per-layer ledger, the tracing overhead, and the
// checks that both runs did the same steps and ended in the same result.
// `--workdir` holds the write-ahead log of durable workloads and the
// span file of traced runs.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibration.h"
#include "metric_names.h"
#include "obs/process_stats.h"
#include "tracing.h"
#include "workload.h"
#include "wrangler/evaluation.h"
#include "wrangler/session.h"

namespace wranglebench {
namespace {

using Clock = std::chrono::steady_clock;
using vada::OrchestrationStats;
using vada::Status;
using vada::WranglingSession;

// Set-up runs this many times; setup_s is the median.
constexpr int kSetupReps = 5;
// A wrangled result scoring below this against the generator's ground
// truth is wrong, not merely worse.
constexpr double kMinOverall = 0.5;
// A timed loop runs at least this many ops, so that its p90 has ten
// samples beyond it.
constexpr size_t kMinOps = 100;
// The loop stops at the end of a round; this caps a run whose rounds
// are far slower than expected.
constexpr double kOverrunSeconds = 60.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || kv.size() != 5) return false;
  for (const char* k : {"workload", "seed", "seconds", "trace", "workdir"}) {
    if (kv.count(k) == 0) return false;
  }
  out->workload = kv["workload"];
  out->workdir = kv["workdir"];
  char* end = nullptr;
  out->seed = std::strtoull(kv["seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  out->seconds = std::strtod(kv["seconds"].c_str(), &end);
  if (*end != '\0' || !(out->seconds > 0)) return false;
  if (kv["trace"] != "0" && kv["trace"] != "1") return false;
  out->trace = kv["trace"] == "1";
  return !out->workdir.empty();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Sums of the session counters the ledger reports, read through
// MetricsReport(). Counters are summed over every label set.
struct Counters {
  double evaluations = 0;
  double join_work = 0;
  double facts_derived = 0;
  double index_builds = 0;
  double facts_added = 0;
  double facts_removed = 0;
  double wal_records = 0;
  double wal_bytes = 0;
  // End-of-run gauges.
  double symtab_bytes = 0;
  double index_bytes = 0;
  double relation_bytes = 0;

  void AddDelta(const Counters& end, const Counters& begin) {
    evaluations += end.evaluations - begin.evaluations;
    join_work += end.join_work - begin.join_work;
    facts_derived += end.facts_derived - begin.facts_derived;
    index_builds += end.index_builds - begin.index_builds;
    facts_added += end.facts_added - begin.facts_added;
    facts_removed += end.facts_removed - begin.facts_removed;
    wal_records += end.wal_records - begin.wal_records;
    wal_bytes += end.wal_bytes - begin.wal_bytes;
    symtab_bytes = end.symtab_bytes;
    index_bytes = end.index_bytes;
    relation_bytes = end.relation_bytes;
  }
};

Counters ReadCounters(const WranglingSession& session) {
  vada::SessionMetricsReport report = session.MetricsReport();
  auto sum = [&report](const char* name) {
    double total = 0;
    for (const vada::obs::MetricSample& s : report.snapshot.samples) {
      if (s.name == name) total += s.value;
    }
    return total;
  };
  Counters c;
  c.evaluations = sum("vada_datalog_evaluations");
  c.join_work = sum("vada_datalog_join_probes") +
                sum("vada_datalog_index_probes_total") +
                sum("vada_datalog_index_candidates_total");
  c.facts_derived = sum("vada_datalog_facts_derived");
  c.index_builds = sum("vada_datalog_index_builds_total");
  c.facts_added = sum("vada_kb_facts_added");
  c.facts_removed = sum("vada_kb_facts_removed");
  c.wal_records = sum("vada_wal_records_total");
  c.wal_bytes = sum("vada_wal_bytes_total");
  c.symtab_bytes = sum("vada_symtab_bytes");
  c.index_bytes = sum("vada_index_bytes");
  c.relation_bytes = sum("vada_kb_relation_bytes");
  return c;
}

// What one pass of the timed loop did.
struct PhaseResult {
  std::vector<double> op_ms;            ///< as measured
  std::vector<Clock::time_point> op_at;  ///< when each op ended
  size_t failed = 0;
  size_t steps = 0;
  size_t effective_steps = 0;
  size_t dependency_checks = 0;
  size_t retries = 0;
  size_t epochs = 0;
  /// (variant, digest of the epoch's final result), in epoch order.
  std::vector<std::pair<size_t, uint64_t>> epoch_digests;
  /// EvaluateScenario(...).overall of each variant's final result.
  std::map<size_t, double> overall;
  Counters counters;  ///< traced phases only
  std::vector<std::string> errors;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args,
        HostCalibration* calibration)
      : spec_(spec), args_(args), calibration_(calibration) {}

  ~Bench() {
    setup_session_.reset();
    if (spec_.durable) {
      std::error_code ec;
      std::filesystem::remove_all(WalDir(), ec);
    }
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }

  /// Generates every input from the seed and, for event workloads,
  /// builds and bootstraps the first epoch's session. Repeated
  /// kSetupReps times; returns the median wall time in seconds.
  double Setup(std::vector<std::string>* errors);

  /// Runs whole rounds of epochs, one epoch per variant in each round,
  /// until `seconds` have passed and kMinOps ops are done; or exactly
  /// `epochs` epochs when non-zero. Whole rounds weigh every variant
  /// equally, whatever the host's speed.
  PhaseResult RunPhase(double seconds, size_t epochs);

 private:
  std::string WalDir() const { return args_.workdir + "/wal"; }

  // A fresh session; durable workloads get an empty WAL directory.
  std::unique_ptr<WranglingSession> NewSession();
  // Target schema, sources and reference data of `in`, as input spans
  // under `parent` when tracing.
  Status LoadInputs(WranglingSession* session, const ScenarioInputs& in,
                    uint64_t parent);
  Status TimedRun(WranglingSession* session, uint64_t parent,
                  OrchestrationStats* stats);
  // Built and bootstrapped outside any op.
  std::unique_ptr<WranglingSession> Bootstrapped(size_t variant,
                                                 std::vector<std::string>* errors);
  void BootstrapEpoch(size_t variant, PhaseResult* out);
  void EventEpoch(size_t variant, PhaseResult* out);
  void Record(const Status& status, const WranglingSession& session,
              const OrchestrationStats& stats, double ms, PhaseResult* out);
  void EndEpoch(size_t variant, const WranglingSession& session,
                PhaseResult* out);

  template <typename Fn>
  Status Spanned(const char* kind, const char* detail, uint64_t parent,
                 Fn&& fn) {
    if (recorder_ == nullptr) return fn();
    uint64_t id = recorder_->Begin(kind, detail, parent);
    Status s = fn();
    recorder_->End(id);
    return s;
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  HostCalibration* calibration_;
  SpanRecorder* recorder_ = nullptr;
  std::vector<ScenarioInputs> variants_;
  std::unique_ptr<WranglingSession> setup_session_;
  std::map<size_t, uint64_t> bootstrap_digest_;
  uint64_t next_op_ = 1;
};

std::unique_ptr<WranglingSession> Bench::NewSession() {
  vada::WranglerConfig config;
  if (spec_.durable) {
    std::error_code ec;
    std::filesystem::remove_all(WalDir(), ec);
    std::filesystem::create_directories(WalDir(), ec);
    config.durability.enabled = true;
    config.durability.directory = WalDir();
    config.durability.fsync = vada::FsyncPolicy::kNone;
  }
  if (recorder_ != nullptr) {
    config.transducer_decorator = TimingDecorator(recorder_);
  }
  return std::make_unique<WranglingSession>(config);
}

Status Bench::LoadInputs(WranglingSession* session, const ScenarioInputs& in,
                         uint64_t parent) {
  Status s = Spanned(kInputSpan, "SetTargetSchema", parent, [&] {
    return session->SetTargetSchema(TargetSchema());
  });
  for (const vada::Relation* source :
       {&in.rightmove, &in.onthemarket, &in.deprivation}) {
    if (s.ok()) {
      s = Spanned(kInputSpan, "AddSource", parent,
                  [&] { return session->AddSource(*source); });
    }
  }
  if (s.ok()) {
    s = Spanned(kInputSpan, "AddDataContext", parent, [&] {
      return session->AddDataContext(in.address, vada::RelationRole::kReference,
                                     {{"street", "street"},
                                      {"postcode", "postcode"}});
    });
  }
  return s;
}

Status Bench::TimedRun(WranglingSession* session, uint64_t parent,
                       OrchestrationStats* stats) {
  if (recorder_ == nullptr) return session->Run(stats);
  uint64_t id = recorder_->Begin(kRunSpan, "Run", parent);
  recorder_->set_current_run(id);
  Status s = session->Run(stats);
  recorder_->set_current_run(0);
  recorder_->End(id);
  return s;
}

std::unique_ptr<WranglingSession> Bench::Bootstrapped(
    size_t variant, std::vector<std::string>* errors) {
  if (recorder_ != nullptr) recorder_->set_op(0);
  std::unique_ptr<WranglingSession> session = NewSession();
  OrchestrationStats stats;
  Status s = LoadInputs(session.get(), variants_[variant], 0);
  if (s.ok()) s = TimedRun(session.get(), 0, &stats);
  if (!s.ok() || session->result() == nullptr) {
    errors->push_back("bootstrap of variant " + std::to_string(variant) +
                      " failed: " + s.ToString());
    return session;
  }
  uint64_t digest = RelationDigest(*session->result());
  auto [it, inserted] = bootstrap_digest_.emplace(variant, digest);
  if (!inserted && it->second != digest) {
    errors->push_back("bootstrap result of variant " +
                      std::to_string(variant) + " differs between sessions");
  }
  return session;
}

double Bench::Setup(std::vector<std::string>* errors) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_session_.reset();
    variants_.clear();
    Clock::time_point t0 = Clock::now();
    for (size_t v = 0; v < spec_.variants; ++v) {
      variants_.push_back(GenerateScenario(spec_, args_.seed, v));
    }
    if (spec_.epoch_events == 0) {
      // Warm-up: one bootstrap per variant, whose results every timed
      // bootstrap must reproduce.
      for (size_t v = 0; v < spec_.variants; ++v) Bootstrapped(v, errors);
    } else {
      setup_session_ = Bootstrapped(0, errors);
    }
    times.push_back(Seconds(t0, Clock::now()));
  }
  return Median(times);
}

void Bench::Record(const Status& status, const WranglingSession& session,
                   const OrchestrationStats& stats, double ms,
                   PhaseResult* out) {
  out->op_ms.push_back(ms);
  out->op_at.push_back(Clock::now());
  out->steps += stats.steps;
  out->effective_steps += stats.effective_steps;
  out->dependency_checks += stats.dependency_checks;
  out->retries += stats.retries;
  const vada::Relation* result = session.result();
  bool failed = !status.ok() || result == nullptr || result->empty() ||
                stats.failures != 0 || stats.quarantined != 0 ||
                stats.budget_exhausted;
  if (failed) {
    ++out->failed;
    if (out->failed == 1) {
      std::fprintf(stderr, "op %zu failed: %s\n", out->op_ms.size(),
                   status.ToString().c_str());
    }
  }
  calibration_->MaybeSample();
}

void Bench::EndEpoch(size_t variant, const WranglingSession& session,
                     PhaseResult* out) {
  ++out->epochs;
  const vada::Relation* result = session.result();
  if (result == nullptr) {
    out->errors.push_back("epoch ended without a result");
    return;
  }
  out->epoch_digests.emplace_back(variant, RelationDigest(*result));
  if (out->overall.count(variant) == 0) {
    out->overall[variant] =
        vada::EvaluateScenario(*result, variants_[variant].truth).overall;
  }
}

void Bench::BootstrapEpoch(size_t variant, PhaseResult* out) {
  uint64_t op = next_op_++;
  if (recorder_ != nullptr) recorder_->set_op(op);
  uint64_t op_span =
      recorder_ == nullptr ? 0 : recorder_->Begin(kOpSpan, "bootstrap", 0);
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<WranglingSession> session = NewSession();
  OrchestrationStats stats;
  Status s = LoadInputs(session.get(), variants_[variant], op_span);
  if (s.ok()) s = TimedRun(session.get(), op_span, &stats);
  double ms = Seconds(t0, Clock::now()) * 1e3;
  if (recorder_ != nullptr) {
    recorder_->End(op_span);
    recorder_->set_op(0);
  }
  Record(s, *session, stats, ms, out);
  EndEpoch(variant, *session, out);
  if (recorder_ != nullptr) {
    out->counters.AddDelta(ReadCounters(*session), Counters());
  }
}

void Bench::EventEpoch(size_t variant, PhaseResult* out) {
  std::unique_ptr<WranglingSession> session =
      variant == 0 && setup_session_ != nullptr
          ? std::move(setup_session_)
          : Bootstrapped(variant, &out->errors);
  if (session->result() == nullptr) return;
  const ScenarioInputs& in = variants_[variant];
  Counters begin;
  if (recorder_ != nullptr) begin = ReadCounters(*session);
  Annotator annotator(in.annotation_seed);
  size_t next_batch = 0;
  size_t contexts = 0;
  for (EventKind kind : in.schedule) {
    // The user's choice of what to do next is think time, not op time.
    vada::FeedbackItem item;
    if (kind == EventKind::kFeedback) {
      std::optional<vada::FeedbackItem> next =
          annotator.Next(*session->result());
      if (!next.has_value()) {
        out->errors.push_back("annotator found no row to annotate");
        return;
      }
      item = std::move(*next);
    }
    uint64_t op = next_op_++;
    if (recorder_ != nullptr) recorder_->set_op(op);
    uint64_t op_span = recorder_ == nullptr
                           ? 0
                           : recorder_->Begin(kOpSpan, EventKindName(kind), 0);
    Clock::time_point t0 = Clock::now();
    Status s;
    switch (kind) {
      case EventKind::kFeedback:
        s = Spanned(kInputSpan, "AddFeedback", op_span,
                    [&] { return session->AddFeedback(item); });
        break;
      case EventKind::kSource:
        s = Spanned(kInputSpan, "AddSource", op_span, [&] {
          return session->AddSource(in.held_back[next_batch]);
        });
        ++next_batch;
        break;
      case EventKind::kUserContext:
        s = Spanned(kInputSpan, "SetUserContext", op_span, [&] {
          return session->SetUserContext(contexts % 2 == 0
                                             ? PaperUserContext()
                                             : ReversedUserContext());
        });
        ++contexts;
        break;
    }
    OrchestrationStats stats;
    if (s.ok()) s = TimedRun(session.get(), op_span, &stats);
    double ms = Seconds(t0, Clock::now()) * 1e3;
    if (recorder_ != nullptr) {
      recorder_->End(op_span);
      recorder_->set_op(0);
    }
    Record(s, *session, stats, ms, out);
    if (session->result() == nullptr) return;
  }
  EndEpoch(variant, *session, out);
  if (recorder_ != nullptr) {
    out->counters.AddDelta(ReadCounters(*session), begin);
  }
}

PhaseResult Bench::RunPhase(double seconds, size_t epochs) {
  PhaseResult out;
  Clock::time_point start = Clock::now();
  for (size_t epoch = 0;; ++epoch) {
    double elapsed = Seconds(start, Clock::now());
    if (epochs > 0) {
      if (epoch == epochs) break;
    } else if (epoch % spec_.variants == 0 && elapsed >= seconds &&
               out.op_ms.size() >= kMinOps) {
      break;
    }
    if (elapsed >= seconds + kOverrunSeconds) {
      out.errors.push_back("loop overran its time limit");
      break;
    }
    size_t variant = epoch % spec_.variants;
    if (spec_.epoch_events == 0) {
      BootstrapEpoch(variant, &out);
    } else {
      EventEpoch(variant, &out);
    }
  }
  // Every epoch of a variant replays the same inputs, so it must end in
  // the same result.
  std::map<size_t, uint64_t> first;
  for (const auto& [variant, digest] : out.epoch_digests) {
    auto [it, inserted] = first.emplace(variant, digest);
    auto warm_up = bootstrap_digest_.find(variant);
    bool matches_setup = spec_.epoch_events != 0 ||
                         (warm_up != bootstrap_digest_.end() &&
                          warm_up->second == digest);
    if ((!inserted && it->second != digest) || !matches_setup) {
      out.errors.push_back("variant " + std::to_string(variant) +
                           " ended in different results on the same inputs");
      break;
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

double OverallMean(const PhaseResult& r) {
  double sum = 0;
  for (const auto& [variant, overall] : r.overall) sum += overall;
  return r.overall.empty() ? 0 : sum / static_cast<double>(r.overall.size());
}

// Op times scaled to the reference host (see calibration.h).
std::vector<double> ScaledOps(const PhaseResult& r,
                              const HostCalibration& calibration) {
  std::vector<double> scaled;
  for (size_t i = 0; i < r.op_ms.size(); ++i) {
    scaled.push_back(r.op_ms[i] * calibration.ScaleAt(r.op_at[i]));
  }
  return scaled;
}

std::map<std::string, double> EndToEnd(const PhaseResult& r,
                                       double scaled_setup_s,
                                       const HostCalibration& calibration) {
  std::vector<double> ops = ScaledOps(r, calibration);
  double total_ms = 0;
  for (double ms : ops) total_ms += ms;
  double attempted = static_cast<double>(ops.size());
  return {
      {"setup_s", scaled_setup_s},
      {"run_ms_p50", Percentile(ops, 0.5)},
      {"run_ms_p90", Percentile(ops, 0.9)},
      {"ops_per_s", total_ms > 0 ? attempted / (total_ms / 1e3) : 0},
      {"peak_rss_mb",
       static_cast<double>(vada::obs::SampleProcessMemory().peak_rss_bytes) /
           1e6},
      {"result_overall", OverallMean(r)},
      {"ok_op_ratio",
       attempted > 0 ? (attempted - static_cast<double>(r.failed)) / attempted
                     : 0},
  };
}

// `replay_calibration` is the index of the first calibration sample
// taken during the untraced replay. Layer times are scaled by the median
// kernel time of the traced pass before it.
std::map<std::string, double> PerLayer(const PhaseResult& traced,
                                       const PhaseResult& untraced,
                                       const LayerTimes& t,
                                       const HostCalibration& calibration,
                                       size_t replay_calibration) {
  double ops = std::max<double>(1, static_cast<double>(traced.op_ms.size()));
  std::map<std::string, double> m;
  std::map<std::string, double> module_ms;
  for (const TransducerLayer& layer : StandardTransducerLayers()) {
    auto ms = t.body_ms.find(layer.transducer);
    auto calls = t.body_calls.find(layer.transducer);
    double body_ms = ms == t.body_ms.end() ? 0 : ms->second;
    m["body." + layer.transducer + ".ms"] = body_ms / ops;
    m["body." + layer.transducer + ".calls"] =
        calls == t.body_calls.end() ? 0
                                    : static_cast<double>(calls->second) / ops;
    module_ms[layer.module] += body_ms;
  }
  for (const char* module :
       {"match", "mapping", "fusion", "quality", "feedback"}) {
    m[std::string(module) + ".ms"] = module_ms[module] / ops;
  }
  auto exec = t.body_ms.find("mapping_execution");
  m["mapping.execution_ms"] = exec == t.body_ms.end() ? 0 : exec->second / ops;
  m["transducer.run_ms"] = t.run_ms / ops;
  m["transducer.orchestration_ms"] = t.orchestration_ms / ops;
  m["wrangler.input_ms"] = t.input_ms / ops;
  m["transducer.steps"] = static_cast<double>(traced.steps) / ops;
  m["transducer.effective_steps"] =
      static_cast<double>(traced.effective_steps) / ops;
  m["transducer.effective_step_ratio"] =
      traced.steps == 0 ? 0
                        : static_cast<double>(traced.effective_steps) /
                              static_cast<double>(traced.steps);
  m["transducer.dependency_checks"] =
      static_cast<double>(traced.dependency_checks) / ops;
  const Counters& c = traced.counters;
  m["datalog.evaluations"] = c.evaluations / ops;
  m["datalog.join_work"] = c.join_work / ops;
  m["datalog.facts_derived"] = c.facts_derived / ops;
  m["datalog.index_builds"] = c.index_builds / ops;
  m["kb.facts_added"] = c.facts_added / ops;
  m["kb.facts_removed"] = c.facts_removed / ops;
  m["kb.wal_records"] = c.wal_records / ops;
  m["kb.wal_bytes"] = c.wal_bytes / ops;
  m["datalog.symtab_bytes"] = c.symtab_bytes;
  m["datalog.index_bytes"] = c.index_bytes;
  m["kb.relation_bytes"] = c.relation_bytes;
  double traced_ms = calibration.MedianMs(0, replay_calibration);
  double traced_scale = HostCalibration::kReferenceMs / traced_ms;
  for (const MetricDef& def : PerLayerMetrics()) {
    if (def.unit == "ms") m[def.name] *= traced_scale;
  }
  // Each op is scaled by the host speed around it, so a change of speed
  // between the two passes does not read as overhead.
  double traced_p50 = Percentile(ScaledOps(traced, calibration), 0.5);
  double untraced_p50 = Percentile(ScaledOps(untraced, calibration), 0.5);
  m["trace.traced_run_ms_p50"] = traced_p50;
  m["trace.untraced_run_ms_p50"] = untraced_p50;
  m["trace.overhead_ratio"] = untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0;
  m["host.calibration_ms"] = traced_ms;
  return m;
}

// Prints the result line: every metric of `defs`, in their order.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    double v = it == values.end() ? 0 : it->second;
    line += (first ? "\"" : ", \"") + def.name + "\": {\"value\": " +
            Number(v) + ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintSummary(const Args& args, const WorkloadSpec& spec,
                  const PhaseResult& r, double setup_s,
                  const HostCalibration& calibration) {
  std::printf(
      "wranglebench workload=%s seed=%llu seconds=%s trace=%d "
      "hardware_threads=%u clients=1 loop=closed session_threads=1 "
      "config=%s\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      spec.durable ? "defaults+durability(fsync=none)" : "defaults");
  std::printf(
      "ops=%zu failed=%zu epochs=%zu measured: setup_s=%.3f p50_ms=%.3f "
      "p90_ms=%.3f; calibration_ms=%.3f (median of %zu samples); "
      "steps/op=%.1f result_overall=%.4f\n",
      r.op_ms.size(), r.failed, r.epochs, setup_s,
      Percentile(r.op_ms, 0.5), Percentile(r.op_ms, 0.9),
      calibration.MedianMs(), calibration.samples(),
      r.op_ms.empty() ? 0.0
                      : static_cast<double>(r.steps) /
                            static_cast<double>(r.op_ms.size()),
      OverallMean(r));
  // The final result of each variant, to compare across processes.
  std::map<size_t, uint64_t> digests(r.epoch_digests.begin(),
                                     r.epoch_digests.end());
  std::printf("result digests:");
  for (const auto& [variant, digest] : digests) {
    std::printf(" %zu:%016llx", variant,
                static_cast<unsigned long long>(digest));
  }
  std::printf("\n");
  for (const std::string& e : r.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wranglebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir>\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 2;
  }

  HostCalibration calibration;
  for (int i = 0; i < 3; ++i) calibration.Sample();
  SpanRecorder recorder;
  Bench bench(*spec, args, &calibration);
  if (args.trace) bench.set_recorder(&recorder);
  std::vector<std::string> setup_errors;
  double setup_s = bench.Setup(&setup_errors);
  Clock::time_point setup_at = Clock::now();
  PhaseResult main_phase = bench.RunPhase(args.seconds, 0);
  main_phase.errors.insert(main_phase.errors.begin(), setup_errors.begin(),
                           setup_errors.end());
  PrintSummary(args, *spec, main_phase, setup_s, calibration);
  bool correct = main_phase.errors.empty() && !main_phase.op_ms.empty() &&
                 OverallMean(main_phase) >= kMinOverall;
  size_t attempted = main_phase.op_ms.size();
  size_t failed = main_phase.failed;

  if (!args.trace) {
    PrintResult(correct, attempted, failed, EndToEndMetrics(),
                EndToEnd(main_phase, setup_s * calibration.ScaleAt(setup_at),
                         calibration));
    return 0;
  }

  bench.set_recorder(nullptr);
  size_t replay_calibration = calibration.samples();
  PhaseResult replay = bench.RunPhase(args.seconds, main_phase.epochs);
  LayerTimes layers = SumLayers(recorder.spans());
  size_t body_calls = 0;
  for (const auto& [name, calls] : layers.body_calls) body_calls += calls;
  std::vector<std::string> checks = replay.errors;
  if (replay.op_ms.size() != attempted || replay.steps != main_phase.steps) {
    checks.push_back("traced and untraced runs took different steps");
  }
  if (replay.epoch_digests != main_phase.epoch_digests) {
    checks.push_back("traced and untraced runs ended in different results");
  }
  if (body_calls != main_phase.steps + main_phase.retries) {
    checks.push_back("body spans (" + std::to_string(body_calls) +
                     ") != steps + retries (" +
                     std::to_string(main_phase.steps + main_phase.retries) +
                     ")");
  }
  if (layers.orphan_bodies != 0) {
    checks.push_back("body spans outside a run span");
  }
  std::string span_file =
      args.workdir + "/spans_" + spec->name + ".jsonl";
  if (!recorder.WriteJsonLines(span_file)) {
    checks.push_back("cannot write " + span_file);
  }
  for (const std::string& c : checks) std::printf("check failed: %s\n", c.c_str());
  std::printf("spans=%zu written to %s; measured p50 traced %.3f ms, "
              "untraced %.3f ms\n",
              recorder.spans().size(), span_file.c_str(),
              Percentile(main_phase.op_ms, 0.5), Percentile(replay.op_ms, 0.5));
  PrintResult(correct && checks.empty(), attempted, failed, PerLayerMetrics(),
              PerLayer(main_phase, replay, layers, calibration,
                       replay_calibration));
  return 0;
}

}  // namespace
}  // namespace wranglebench

int main(int argc, char** argv) { return wranglebench::Main(argc, argv); }
