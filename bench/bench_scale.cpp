// Experiment S1 (extension beyond the paper): end-to-end scalability of
// the full wrangle — universe size vs wall time, with the per-activity
// split, so adopters can see where time goes as data grows.
//
// Expected shape: mapping execution (reasoner joins over source
// instances) dominates and grows roughly linearly with rows at these
// scales; orchestration overhead (dependency checks) grows with the
// number of relations, not with data volume.
//
// Every time is the median [p10, p90] of kReps bootstraps (a fresh
// session each) after kWarmup discarded ones. Only Run() is timed; the
// per-activity columns summarize the same reps' trace durations.
#include <map>

#include "bench/bench_util.h"
#include "wrangler/session.h"

namespace {

constexpr size_t kReps = 5;
constexpr size_t kWarmup = 1;

}  // namespace

int main() {
  using namespace vada;
  using namespace vada::bench;

  std::printf("S1: end-to-end scalability\n");
  std::printf("(wall ms: median [p10, p90] of %zu reps after %zu warm-up)\n\n",
              kReps, kWarmup);

  BenchReport report("scale");
  Table table({"properties", "source rows", "result rows", "steps",
               "dep checks", "total ms", "execution ms", "fusion ms"});
  for (size_t properties : {100, 300, 1000, 3000}) {
    Scenario sc = MakeScenario(3000 + properties, properties,
                               std::max<size_t>(12, properties / 10));
    OrchestrationStats stats;
    size_t result_rows = 0;
    std::map<std::string, std::vector<double>> per_activity;
    size_t calls = 0;
    Measurement total = Measure(kReps, kWarmup, [&] {
      const bool warm_up = ++calls <= kWarmup;
      WranglingSession session;
      Status s = session.SetTargetSchema(PaperTargetSchema());
      if (s.ok()) s = session.AddSource(sc.rightmove);
      if (s.ok()) s = session.AddSource(sc.onthemarket);
      if (s.ok()) s = session.AddSource(sc.deprivation);
      if (s.ok()) {
        s = session.AddDataContext(sc.address, RelationRole::kReference,
                                   {{"street", "street"},
                                    {"postcode", "postcode"}});
      }
      stats = OrchestrationStats();
      double ms = TimeMs([&] {
        if (s.ok()) s = session.Run(&stats);
      });
      if (!s.ok()) {
        std::fprintf(stderr, "properties %zu: %s\n", properties,
                     s.ToString().c_str());
        std::exit(1);
      }
      result_rows = session.result()->size();
      if (!warm_up) {
        std::map<std::string, double> rep;
        for (const TraceEvent& e : session.trace().events()) {
          rep[e.activity] += e.duration_ms;
        }
        for (const char* activity : {"execution", "fusion"}) {
          per_activity[activity].push_back(rep[activity]);
        }
      }
      return ms;
    });
    Measurement execution = Summarize(per_activity["execution"]);
    Measurement fusion = Summarize(per_activity["fusion"]);
    size_t source_rows =
        sc.rightmove.size() + sc.onthemarket.size() + sc.deprivation.size();
    table.AddRow({std::to_string(properties), std::to_string(source_rows),
                  std::to_string(result_rows), std::to_string(stats.steps),
                  std::to_string(stats.dependency_checks), FmtSpread(total),
                  FmtSpread(execution), FmtSpread(fusion)});
    const std::string key = "p" + std::to_string(properties);
    report.AddMeasurement(key + "_total_ms", total);
    report.AddMeasurement(key + "_execution_ms", execution);
    report.AddMeasurement(key + "_fusion_ms", fusion);
    report.Add(key + "_steps", static_cast<double>(stats.steps));
  }
  table.Print();
  report.WriteJson();
  return 0;
}
