// Experiment E8 — dynamic orchestration vs. static ETL (§1, §3 goal iii):
// quantifies what the dynamic network transducer costs and buys relative
// to the fixed pre-configured pipeline the paper positions itself
// against.
//
// Paper claim (shape): comparable scope to ETL with less configuration;
// dynamic orchestration additionally reacts to *incremental* inputs —
// re-running only what new information enables — where an ETL pipeline
// must re-run from scratch.
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "bench/bench_util.h"
#include "wrangler/etl_baseline.h"
#include "wrangler/evaluation.h"
#include "wrangler/session.h"

namespace {

using namespace vada;
using namespace vada::bench;

constexpr size_t kReps = 5;
constexpr size_t kWarmup = 1;

/// One input the user gives the session, followed by a Run().
struct Event {
  std::string name;
  std::function<Status(WranglingSession*)> apply;
};

/// The timed Run() of one event, with what it did.
struct EventRun {
  double ms = 0;
  OrchestrationStats stats;
  ScenarioEvaluation eval;
};

/// Replays events[0..k) on a fresh session (untimed), then applies
/// events[k] and times its Run().
Result<EventRun> RunEvent(const WranglerConfig& config,
                          const std::vector<Event>& events, size_t k,
                          const GroundTruth& truth) {
  WranglingSession session(config);
  for (size_t i = 0; i < k; ++i) {
    VADA_RETURN_IF_ERROR(events[i].apply(&session));
    VADA_RETURN_IF_ERROR(session.Run());
  }
  VADA_RETURN_IF_ERROR(events[k].apply(&session));
  EventRun run;
  Status s;
  run.ms = TimeMs([&] { s = session.Run(&run.stats); });
  VADA_RETURN_IF_ERROR(s);
  run.eval = EvaluateScenario(*session.result(), truth);
  return run;
}

/// Measure() over RunEvent; `*last` keeps the final rep's counts (they
/// are deterministic, so every rep has the same).
Result<Measurement> MeasureEvent(const WranglerConfig& config,
                                 const std::vector<Event>& events, size_t k,
                                 const GroundTruth& truth, EventRun* last) {
  Status error;
  Measurement m = Measure(kReps, kWarmup, [&] {
    Result<EventRun> run = RunEvent(config, events, k, truth);
    if (!run.ok()) {
      error = run.status();
      return 0.0;
    }
    *last = run.value();
    return last->ms;
  });
  if (!error.ok()) return error;
  return m;
}

}  // namespace

int main() {
  std::printf("E8: dynamic orchestration vs static ETL pipeline\n");
  std::printf("(wall ms: median [p10, p90] of %zu reps after %zu warm-up)\n\n",
              kReps, kWarmup);

  Scenario sc = MakeScenario(11, 300, 40);
  std::vector<Relation> sources = {sc.rightmove, sc.onthemarket,
                                   sc.deprivation};

  // --- Static ETL: one fixed-order pass. An ETL deployment handling
  // late-arriving reference data would re-run the full pipeline (after
  // someone reconfigures it), so the re-run row repeats the pass. ---
  EtlPipeline etl;
  EtlReport etl_report;
  Result<Relation> etl_result(Relation{});
  auto etl_pass = [&] {
    return TimeMs([&] {
      etl_report = EtlReport();
      etl_result = etl.Run(PaperTargetSchema(), sources, &etl_report);
    });
  };
  Measurement etl_ms = Measure(kReps, kWarmup, etl_pass);
  if (!etl_result.ok()) {
    std::fprintf(stderr, "etl failed: %s\n",
                 etl_result.status().ToString().c_str());
    return 1;
  }
  Measurement etl_rerun_ms = Measure(kReps, kWarmup, etl_pass);
  ScenarioEvaluation etl_eval = EvaluateScenario(etl_result.value(), sc.truth);

  // --- Dynamic VADA: the bootstrap, then pay-as-you-go events, each a
  // new input plus Run(). Dynamic orchestration re-runs only what the
  // new information enables or invalidates. ---
  std::vector<Event> events = {
      {"bootstrap",
       [&](WranglingSession* s) {
         VADA_RETURN_IF_ERROR(s->SetTargetSchema(PaperTargetSchema()));
         for (const Relation& src : sources) {
           VADA_RETURN_IF_ERROR(s->AddSource(src));
         }
         return Status::OK();
       }},
      {"+data context",
       [&](WranglingSession* s) {
         return s->AddDataContext(sc.address, RelationRole::kReference,
                                  {{"street", "street"},
                                   {"postcode", "postcode"}});
       }},
      {"+feedback",
       [](WranglingSession* s) {
         // Flag the first implausible bedroom counts the user meets.
         const Relation* result = s->result();
         size_t bed = *result->schema().AttributeIndex("bedrooms");
         std::vector<FeedbackItem> items;
         for (const Tuple& row : result->rows()) {
           std::optional<double> v = row.at(bed).AsDouble();
           if (v.has_value() && *v > 8.0 && items.size() < 3) {
             items.push_back({row, "bedrooms", FeedbackPolarity::kIncorrect});
           }
         }
         for (const FeedbackItem& item : items) {
           VADA_RETURN_IF_ERROR(s->AddFeedback(item));
         }
         return Status::OK();
       }},
      {"+user context",
       [](WranglingSession* s) {
         UserContext uc;
         VADA_RETURN_IF_ERROR(uc.AddStatement("completeness", "crimerank",
                                              "very strongly", "completeness",
                                              "bedrooms"));
         return s->SetUserContext(uc);
       }},
  };

  // Observability off: this bench is the pay-for-what-you-use check —
  // instrumentation must cost nothing when disabled (the enabled run
  // below quantifies what it costs when on).
  WranglerConfig config;
  config.obs.enabled = false;
  std::vector<Measurement> event_ms;
  std::vector<EventRun> event_runs(events.size());
  for (size_t k = 0; k < events.size(); ++k) {
    Result<Measurement> m =
        MeasureEvent(config, events, k, sc.truth, &event_runs[k]);
    if (!m.ok()) {
      std::fprintf(stderr, "vada %s failed: %s\n", events[k].name.c_str(),
                   m.status().ToString().c_str());
      return 1;
    }
    event_ms.push_back(m.value());
  }

  // --- Same bootstrap with observability ON: metrics + spans overhead. ---
  EventRun obs_run;
  Result<Measurement> obs_boot_ms =
      MeasureEvent(WranglerConfig(), events, 0, sc.truth, &obs_run);
  if (!obs_boot_ms.ok()) {
    std::fprintf(stderr, "instrumented bootstrap failed: %s\n",
                 obs_boot_ms.status().ToString().c_str());
    return 1;
  }
  // One more instrumented bootstrap, kept alive for its metrics.
  WranglingSession obs_session;
  Status obs_status = events[0].apply(&obs_session);
  if (obs_status.ok()) obs_status = obs_session.Run();
  if (!obs_status.ok()) {
    std::fprintf(stderr, "instrumented bootstrap failed: %s\n",
                 obs_status.ToString().c_str());
    return 1;
  }
  SessionMetricsReport metrics_report = obs_session.MetricsReport();

  Table table({"system / phase", "component runs", "effective",
               "read-set skips", "dep checks", "wall ms", "rows",
               "overall quality"});
  table.AddRow({"ETL (single pass)", std::to_string(etl_report.component_runs),
                "-", "-", "0", FmtSpread(etl_ms), std::to_string(etl_eval.rows),
                Fmt(etl_eval.overall)});
  for (size_t k = 0; k < events.size(); ++k) {
    const EventRun& r = event_runs[k];
    table.AddRow({"VADA " + events[k].name, std::to_string(r.stats.steps),
                  std::to_string(r.stats.effective_steps),
                  std::to_string(r.stats.read_set_skips),
                  std::to_string(r.stats.dependency_checks),
                  FmtSpread(event_ms[k]), std::to_string(r.eval.rows),
                  Fmt(r.eval.overall)});
  }
  table.AddRow({"ETL re-run (same new input)",
                std::to_string(etl_report.component_runs), "-", "-", "0",
                FmtSpread(etl_rerun_ms), std::to_string(etl_eval.rows),
                Fmt(etl_eval.overall) + " (no repair/selection)"});
  const double boot_ms = event_ms[0].median;
  table.AddRow({"VADA bootstrap (obs enabled)",
                std::to_string(obs_run.stats.steps),
                std::to_string(obs_run.stats.effective_steps),
                std::to_string(obs_run.stats.read_set_skips),
                std::to_string(obs_run.stats.dependency_checks),
                FmtSpread(obs_boot_ms.value()), "-",
                "overhead " +
                    Fmt(boot_ms > 0
                            ? (obs_boot_ms.value().median / boot_ms - 1.0) *
                                  100
                            : 0,
                        1) +
                    "%"});
  table.Print();

  std::printf(
      "\nobservability: instrumented bootstrap recorded %zu metric "
      "samples;\n  vada_datalog_rules_fired=%.0f "
      "vada_orchestrator_steps=%.0f vada_orchestrator_read_set_skips=%.0f\n",
      metrics_report.snapshot.samples.size(),
      metrics_report.snapshot.Value("vada_datalog_rules_fired"),
      metrics_report.snapshot.Value("vada_orchestrator_steps"),
      metrics_report.snapshot.Value("vada_orchestrator_read_set_skips"));

  const OrchestrationStats& boot_stats = event_runs[0].stats;
  BenchReport report("orchestration");
  report.AddMeasurement("etl_ms", etl_ms);
  report.AddMeasurement("vada_bootstrap_ms", event_ms[0]);
  report.AddMeasurement("vada_incremental_ms", event_ms[1]);
  report.AddMeasurement("etl_rerun_ms", etl_rerun_ms);
  report.AddMeasurement("vada_bootstrap_obs_enabled_ms", obs_boot_ms.value());
  report.AddNsPerOp("bootstrap_step_ns", boot_ms, boot_stats.steps);
  report.AddNsPerOp("dependency_check_ns", boot_ms,
                    boot_stats.dependency_checks);
  report.Add("bootstrap_steps", static_cast<double>(boot_stats.steps));
  report.Add("bootstrap_dep_checks",
             static_cast<double>(boot_stats.dependency_checks));
  for (size_t k = 1; k < events.size(); ++k) {
    const std::string key = "event" + std::to_string(k);
    report.Add(key + "_steps", static_cast<double>(event_runs[k].stats.steps));
    report.Add(key + "_effective_steps",
               static_cast<double>(event_runs[k].stats.effective_steps));
    report.Add(key + "_read_set_skips",
               static_cast<double>(event_runs[k].stats.read_set_skips));
    report.AddMeasurement(key + "_ms", event_ms[k]);
  }
  report.Add("result_rows", static_cast<double>(event_runs[1].eval.rows));
  report.Add("overall_quality", event_runs[1].eval.overall);
  report.Add("datalog_rules_fired",
             metrics_report.snapshot.Value("vada_datalog_rules_fired"));
  report.Add("datalog_join_probes",
             metrics_report.snapshot.Value("vada_datalog_join_probes"));
  report.Add("hardware_threads",
             static_cast<double>(std::thread::hardware_concurrency()));
  report.WriteJson();

  std::printf(
      "\nnotes:\n"
      "  * dependency checks are the overhead of declarative dynamic\n"
      "    orchestration (Datalog queries over control relations);\n"
      "  * read-set skips count transducers held back because nothing\n"
      "    their last step read had moved (DESIGN.md section 5e);\n"
      "  * the ETL pipeline cannot exploit the reference data at all —\n"
      "    no instance matching, no CFD repair, no quality-driven\n"
      "    selection — so its quality is frozen at the single-pass level\n"
      "    while VADA's improves with each input (E4/E5/E6).\n");
  return 0;
}
