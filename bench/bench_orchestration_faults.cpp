// Experiment F1 — fault tolerance under injected faults (DESIGN.md §5d):
// what does a wrangle cost when every Execute() runs under a write-guard
// with retries, and does it still converge to the fault-free result when
// faults are actually injected?
//
// Two configurations over the same scenario:
//   1. guarded, fault-free — the one orchestration loop with no faults:
//                            the reference result and its wall time;
//   2. injected faults     — seeded FaultInjector schedules: convergence
//                            time and retry/rollback volume to the same
//                            result.
// Exits 1 unless every schedule reaches the fault-free result row for
// row.
#include "bench/bench_util.h"
#include "transducer/fault_injection.h"
#include "wrangler/session.h"

int main() {
  using namespace vada;
  using namespace vada::bench;

  std::printf("F1: fault-tolerant orchestration under injected faults\n\n");

  Scenario sc = MakeScenario(11, 200, 30);
  std::vector<Relation> sources = {sc.rightmove, sc.onthemarket,
                                   sc.deprivation};

  auto bootstrap = [&](WranglingSession* session) {
    Status s = session->SetTargetSchema(PaperTargetSchema());
    for (const Relation& src : sources) {
      if (s.ok()) s = session->AddSource(src);
    }
    if (s.ok()) {
      s = session->AddDataContext(sc.address, RelationRole::kReference,
                                  {{"street", "street"},
                                   {"postcode", "postcode"}});
    }
    return s;
  };

  // --- 1. Guarded, fault-free: the reference result and its time. ---
  constexpr size_t kReps = 10;
  Status failed;
  OrchestrationStats guarded_stats;
  std::vector<Tuple> expected_rows;
  Measurement guarded = Measure(kReps, 1, [&] {
    WranglerConfig config;
    config.obs.enabled = false;
    WranglingSession session(config);
    Status s = bootstrap(&session);
    OrchestrationStats stats;
    double ms = TimeMs([&] {
      if (s.ok()) s = session.Run(&stats);
    });
    if (!s.ok()) {
      failed = s;
    } else {
      guarded_stats = stats;
      expected_rows = session.result()->rows();
    }
    return ms;
  });
  if (!failed.ok()) {
    std::fprintf(stderr, "guarded run failed: %s\n",
                 failed.ToString().c_str());
    return 1;
  }

  // --- 2. Under injected faults: convergence to the same result. ---
  constexpr uint64_t kSchedules = 10;
  uint64_t seed = 0;
  size_t faulted_retries = 0;
  size_t faulted_rollbacks = 0;
  size_t converged = 0;
  Measurement faulted = Measure(kSchedules, 0, [&] {
    FaultInjector::Options fopt;
    fopt.seed = ++seed;
    fopt.fault_rate = 0.5;
    fopt.max_failures = 2;
    FaultInjector injector(fopt);
    WranglerConfig config;
    config.obs.enabled = false;
    config.fault_tolerance.max_attempts = 4;
    config.fault_tolerance.sleep_ms = [](double) {};  // time work, not sleep
    config.transducer_decorator = injector.Decorator();
    WranglingSession session(config);
    Status s = bootstrap(&session);
    OrchestrationStats stats;
    double ms = TimeMs([&] {
      if (s.ok()) s = session.Run(&stats);
    });
    if (!s.ok()) {
      std::fprintf(stderr, "faulted run (seed %llu) failed: %s\n",
                   static_cast<unsigned long long>(seed),
                   s.ToString().c_str());
      return ms;
    }
    faulted_retries += stats.retries;
    faulted_rollbacks += stats.rollbacks;
    if (session.result()->rows() == expected_rows) ++converged;
    return ms;
  });

  double fault_slowdown_pct =
      guarded.median > 0 ? (faulted.median / guarded.median - 1.0) * 100.0
                         : 0.0;

  Table table({"configuration", "steps", "retries", "rollbacks",
               "wall ms median [p10, p90]", "vs guarded (medians)"});
  table.AddRow({"guarded, fault-free (" + std::to_string(kReps) + " reps)",
                std::to_string(guarded_stats.steps),
                std::to_string(guarded_stats.retries),
                std::to_string(guarded_stats.rollbacks),
                FmtSpread(guarded, 1), "-"});
  table.AddRow({"injected faults (" + std::to_string(kSchedules) +
                    " schedules)",
                "-", std::to_string(faulted_retries),
                std::to_string(faulted_rollbacks), FmtSpread(faulted, 1),
                Fmt(fault_slowdown_pct, 1) + "% slower"});
  table.Print();

  std::printf("\nconvergence: %zu/%llu fault schedules reached the "
              "fault-free result (%zu rows)\n",
              converged, static_cast<unsigned long long>(kSchedules),
              expected_rows.size());

  BenchReport report("orchestration_faults");
  report.Add("guarded_ms", guarded.median);
  report.Add("guarded_ms_p10", guarded.p10);
  report.Add("guarded_ms_p90", guarded.p90);
  report.Add("faulted_ms", faulted.median);
  report.Add("faulted_ms_p10", faulted.p10);
  report.Add("faulted_ms_p90", faulted.p90);
  report.Add("fault_slowdown_pct", fault_slowdown_pct);
  report.Add("faulted_retries", static_cast<double>(faulted_retries));
  report.Add("faulted_rollbacks", static_cast<double>(faulted_rollbacks));
  report.Add("converged_schedules", static_cast<double>(converged));
  report.Add("fault_schedules", static_cast<double>(kSchedules));
  report.Add("baseline_rows", static_cast<double>(expected_rows.size()));
  report.WriteJson();

  std::printf(
      "\nnotes:\n"
      "  * the guard is copy-on-write per touched relation, so the\n"
      "    fault-free cost is the snapshot cost of relations each step\n"
      "    mutates;\n"
      "  * injected runs converge to the identical result because faults\n"
      "    are transient, rollback is exact, and the pipeline is\n"
      "    deterministic (see tests/fault_injection_soak_test.cc).\n");
  if (converged != kSchedules) {
    std::fprintf(stderr, "FAIL: %zu of %llu schedules diverged\n",
                 static_cast<size_t>(kSchedules) - converged,
                 static_cast<unsigned long long>(kSchedules));
    return 1;
  }
  return 0;
}
