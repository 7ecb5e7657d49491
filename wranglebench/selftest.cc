// Tests of the benchmark itself: the generator is deterministic, the
// timing decorator is transparent, and every metric name is well formed
// and matches BENCHMARK.json.
//
//   wranglebench_selftest [path/to/BENCHMARK.json]
//
// Exits 0 when every check passes.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "metric_names.h"
#include "tracing.h"
#include "workload.h"
#include "wrangler/session.h"

namespace wranglebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void GeneratorIsByteIdenticalForASeed() {
  for (const WorkloadSpec& spec : Workloads()) {
    std::string a = SerializeInputs(GenerateScenario(spec, 7, 1));
    std::string b = SerializeInputs(GenerateScenario(spec, 7, 1));
    EXPECT(a == b);
    EXPECT(a != SerializeInputs(GenerateScenario(spec, 8, 1)));
    EXPECT(a != SerializeInputs(GenerateScenario(spec, 7, 2)));
  }
}

void ScheduleAndHeldBackRows() {
  const WorkloadSpec& spec = *FindWorkload("payg_100");
  ScenarioInputs in = GenerateScenario(spec, 3, 0);
  EXPECT(in.schedule.size() == spec.epoch_events);
  auto count = [&in](EventKind k) {
    return std::count(in.schedule.begin(), in.schedule.end(), k);
  };
  EXPECT(count(EventKind::kFeedback) * 10 ==
         static_cast<long>(6 * spec.epoch_events));
  EXPECT(count(EventKind::kSource) * 10 ==
         static_cast<long>(3 * spec.epoch_events));
  EXPECT(in.held_back.size() ==
         static_cast<size_t>(count(EventKind::kSource)));
  for (size_t i = 0; i < in.held_back.size(); ++i) {
    const vada::Relation& batch = in.held_back[i];
    const vada::Relation& listing = i % 2 == 0 ? in.rightmove : in.onthemarket;
    EXPECT(!batch.empty());
    EXPECT(batch.name() == listing.name());
    for (const vada::Tuple& row : batch.rows()) EXPECT(!listing.Contains(row));
  }
  EXPECT(GenerateScenario(*FindWorkload("bootstrap_1000"), 3, 0)
             .held_back.empty());
}

void DecoratorIsTransparent() {
  SpanRecorder recorder;
  vada::TransducerRegistry::Decorator decorate = TimingDecorator(&recorder);

  auto vadalog = std::make_unique<vada::VadalogTransducer>(
      "copy", "custom", "ready() :- sys_relation_nonempty(\"a\").",
      "b(X) :- a(X).", std::vector<std::string>{"b"});
  const std::string program = *vadalog->vadalog_program();
  std::unique_ptr<vada::Transducer> wrapped = decorate(std::move(vadalog));
  EXPECT(wrapped->name() == "copy");
  EXPECT(wrapped->activity() == "custom");
  EXPECT(wrapped->input_dependency() ==
         "ready() :- sys_relation_nonempty(\"a\").");
  EXPECT(wrapped->vadalog_program() != nullptr &&
         *wrapped->vadalog_program() == program);

  auto failing = std::make_unique<vada::FunctionTransducer>(
      "fails", "custom", "ready().",
      vada::FunctionTransducer::Body([](vada::KnowledgeBase*) {
        return vada::Status::Internal("boom");
      }));
  std::unique_ptr<vada::Transducer> wrapped_fail = decorate(std::move(failing));
  EXPECT(wrapped_fail->vadalog_program() == nullptr);
  vada::KnowledgeBase kb;
  recorder.set_op(5);
  uint64_t run = recorder.Begin(kRunSpan, "Run", 0);
  recorder.set_current_run(run);
  vada::Status s = wrapped_fail->Execute(&kb, nullptr);
  recorder.End(run);
  EXPECT(!s.ok() && s.ToString().find("boom") != std::string::npos);
  EXPECT(recorder.spans().size() == 2);
  if (recorder.spans().size() == 2) {
    const Span& body = recorder.spans()[1];
    EXPECT(std::string(body.kind) == kBodySpan);
    EXPECT(body.detail == "fails");
    EXPECT(body.parent == run && body.op == 5);
    EXPECT(body.end_ns >= body.start_ns);
  }
  LayerTimes t = SumLayers(recorder.spans());
  EXPECT(t.body_calls["fails"] == 1 && t.orphan_bodies == 0);
  EXPECT(t.orchestration_ms >= 0 && t.orchestration_ms <= t.run_ms);
}

// A decorated session does the same steps and reaches the same result
// as an undecorated one, and every step shows up as one body span.
void DecoratedSessionMatchesPlainSession() {
  ScenarioInputs in = GenerateScenario(*FindWorkload("payg_100"), 11, 0);
  SpanRecorder recorder;
  uint64_t digests[2] = {0, 0};
  size_t steps[2] = {0, 0};
  for (int traced = 0; traced < 2; ++traced) {
    vada::WranglerConfig config;
    if (traced == 1) config.transducer_decorator = TimingDecorator(&recorder);
    vada::WranglingSession session(config);
    vada::Status s = session.SetTargetSchema(TargetSchema());
    if (s.ok()) s = session.AddSource(in.rightmove);
    if (s.ok()) s = session.AddSource(in.onthemarket);
    if (s.ok()) s = session.AddSource(in.deprivation);
    if (s.ok()) {
      s = session.AddDataContext(in.address, vada::RelationRole::kReference,
                                 {{"street", "street"},
                                  {"postcode", "postcode"}});
    }
    uint64_t run = 0;
    if (traced == 1) {
      recorder.set_op(1);
      run = recorder.Begin(kRunSpan, "Run", 0);
      recorder.set_current_run(run);
    }
    vada::OrchestrationStats stats;
    if (s.ok()) s = session.Run(&stats);
    if (traced == 1) recorder.End(run);
    EXPECT(s.ok() && session.result() != nullptr);
    if (!s.ok() || session.result() == nullptr) return;
    digests[traced] = RelationDigest(*session.result());
    steps[traced] = stats.steps + stats.retries;
  }
  EXPECT(digests[0] == digests[1]);
  EXPECT(steps[0] == steps[1]);
  LayerTimes t = SumLayers(recorder.spans());
  size_t calls = 0;
  for (const auto& [name, n] : t.body_calls) calls += n;
  EXPECT(calls == steps[1]);
  EXPECT(t.orphan_bodies == 0);
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 &&
        std::string("_/%.-").find(c) == std::string::npos) {
      return false;
    }
  }
  return true;
}

void MetricNamesAreWellFormed(const std::string& benchmark_json) {
  std::set<std::string> names;
  std::map<std::string, std::string> described;  // name -> "unit better"
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT(ValidMetricName(d.name));
      EXPECT(ValidUnit(d.unit));
      EXPECT(names.insert(d.name).second);
      EXPECT(d.better == "lower" || d.better == "higher");
      described[d.name] = d.unit + " " + d.better;
    }
  }
  for (const WorkloadSpec& w : Workloads()) {
    EXPECT(ValidMetricName(w.name));
    EXPECT(names.insert(w.name).second);
  }
  EXPECT(ValidMetricName("body.mapping_execution.ms"));
  EXPECT(!ValidMetricName("body mapping"));
  EXPECT(!ValidMetricName("_x"));
  EXPECT(!ValidMetricName("a/b"));
  if (benchmark_json.empty()) return;
  std::ifstream file(benchmark_json);
  EXPECT(static_cast<bool>(file));
  std::stringstream text;
  text << file.rdbuf();
  std::string json = text.str();
  std::set<std::string> listed;
  std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    listed.insert((*it)[1].str());
  }
  EXPECT(listed == names);
  std::map<std::string, std::string> listed_metrics;
  std::regex metric_re(
      "\"name\"\\s*:\\s*\"([^\"]+)\",\\s*\"unit\"\\s*:\\s*\"([^\"]+)\",\\s*"
      "\"better\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), metric_re);
       it != std::sregex_iterator(); ++it) {
    listed_metrics[(*it)[1].str()] = (*it)[2].str() + " " + (*it)[3].str();
  }
  EXPECT(listed_metrics == described);
}

}  // namespace
}  // namespace wranglebench

int main(int argc, char** argv) {
  using namespace wranglebench;
  GeneratorIsByteIdenticalForASeed();
  ScheduleAndHeldBackRows();
  DecoratorIsTransparent();
  DecoratedSessionMatchesPlainSession();
  MetricNamesAreWellFormed(argc > 1 ? argv[1] : "");
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("wranglebench self-test passed\n");
  return 0;
}
