// Experiment C1 (extension beyond the paper): columnar interned-symbol
// storage. The evaluator stores relations as per-column vectors of dense
// uint32 symbol ids over a process-wide dictionary, so join loops compare
// ints instead of variant Values and strings are materialized only at the
// KB/CSV/provenance boundary (DESIGN.md §5j).
//
// Three sections:
//   * scenario_1000 — the full wrangling session end to end (the ROADMAP
//     item-2 acceptance workload), with a per-transducer breakdown;
//   * J1/J2 recursive benches — the bench_join_planner workloads re-run
//     here so BENCH_columnar.json records wall-clock, join work and RSS
//     in one artifact, plus tc_string_chain_256: a string-keyed join,
//     the shape the row engine was slowest at and interning helps most.
//
// Every time is the median of kReps runs after kWarmup discarded ones;
// BENCH_columnar.json records it under <name>_ms with the spread next to
// it (<name>_ms_p10, _p90, _mad).
#include <algorithm>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "wrangler/session.h"

namespace {

using namespace vada;
using namespace vada::bench;
using datalog::Database;
using datalog::EvalOptions;
using datalog::EvalStats;
using datalog::Evaluator;
using datalog::Parser;
using datalog::Program;

Database ChainDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  return db;
}

Database TriangleDb(int nodes, int edges) {
  Database db;
  uint64_t state = 42;
  auto next = [&state](int mod) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((state >> 33) % mod);
  };
  for (int i = 0; i < edges; ++i) {
    db.Insert("edge", Tuple({Value::Int(next(nodes)), Value::Int(next(nodes))}));
  }
  return db;
}

/// String-keyed join EDB: the worst case for the row engine (every
/// probe compared heap strings) and the best case for interning.
Database StringJoinDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert("edge", Tuple({Value::String("node_" + std::to_string(i)),
                             Value::String("node_" + std::to_string(i + 1))}));
  }
  return db;
}

// Few reps keep the bench-smoke CI step short.
constexpr size_t kReps = 5;
constexpr size_t kWarmup = 1;

/// One evaluation of `program` over a fresh copy of `edb`.
struct ProgramRun {
  double ms = 0;
  size_t work = 0;
  size_t results = 0;
};

ProgramRun RunProgram(const Program& program, const Database& edb,
                      const char* goal) {
  ProgramRun r;
  Database db = edb;
  EvalStats stats;
  Evaluator eval(program, EvalOptions());
  if (!eval.Prepare().ok()) return r;
  r.ms = TimeMs([&] { (void)eval.Run(&db, &stats); });
  r.work = stats.join_probes + stats.index_probes + stats.index_candidates;
  r.results = db.FactCount(goal);
  return r;
}

}  // namespace

int main() {
  std::printf("C1: columnar interned-symbol storage\n\n");
  BenchReport report("columnar");

  // ---------------------------------------------------------------
  // scenario_1000 end to end, with the per-transducer time split.
  // ---------------------------------------------------------------
  // Join work, rows and the per-transducer split are deterministic;
  // they are kept from the last rep.
  size_t join_work = 0;
  size_t result_rows = 0;
  std::map<std::string, double> per_transducer;
  Scenario sc = MakeScenario(4000, 1000, 100);
  Status s;
  Measurement scenario = Measure(kReps, kWarmup, [&] {
    WranglingSession session;
    s = session.SetTargetSchema(PaperTargetSchema());
    if (s.ok()) s = session.AddSource(sc.rightmove);
    if (s.ok()) s = session.AddSource(sc.onthemarket);
    if (s.ok()) s = session.AddSource(sc.deprivation);
    if (s.ok()) {
      s = session.AddDataContext(sc.address, RelationRole::kReference,
                                 {{"street", "street"},
                                  {"postcode", "postcode"}});
    }
    double ms = TimeMs([&] {
      if (s.ok()) s = session.Run();
    });
    if (!s.ok()) return ms;
    const obs::MetricsSnapshot snap = session.MetricsReport().snapshot;
    join_work = static_cast<size_t>(
        snap.Value("vada_datalog_join_probes") +
        snap.Value("vada_datalog_index_probes_total") +
        snap.Value("vada_datalog_index_candidates_total"));
    result_rows = session.result() != nullptr ? session.result()->size() : 0;
    per_transducer.clear();
    for (const TraceEvent& e : session.trace().events()) {
      per_transducer[e.transducer] += e.duration_ms;
    }
    return ms;
  });
  if (!s.ok()) {
    std::fprintf(stderr, "scenario: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "scenario_1000: %s ms (median [p10, p90] of %zu), %zu result rows, "
      "%zu join work\n\n",
      FmtSpread(scenario).c_str(), kReps, result_rows, join_work);
  Table split({"transducer", "ms"});
  std::vector<std::pair<std::string, double>> sorted(per_transducer.begin(),
                                                     per_transducer.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [name, ms] : sorted) split.AddRow({name, Fmt(ms, 1)});
  split.Print();
  report.AddMeasurement("scenario_1000_ms", scenario);
  report.Add("scenario_1000_rows", static_cast<double>(result_rows));
  report.Add("scenario_1000_join_work", static_cast<double>(join_work));

  // ---------------------------------------------------------------
  // Recursive benches (the J1/J2 workloads), columnar engine.
  // ---------------------------------------------------------------
  struct Workload {
    std::string name;
    std::string program;
    const char* goal;
    Database db;
  };
  Workload workloads[] = {
      {"tc_chain_256",
       "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).", "tc",
       ChainDb(256)},
      {"triangles_400",
       "tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).", "tri",
       TriangleDb(60, 400)},
      {"tc_string_chain_256",
       "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).", "tc",
       StringJoinDb(256)},
  };
  std::printf("\n");
  Table table({"workload", "results", "ms [p10, p90]", "join work"});
  for (Workload& w : workloads) {
    Result<Program> program = Parser::Parse(w.program);
    if (!program.ok()) continue;
    ProgramRun last;
    Measurement m = Measure(kReps, kWarmup, [&] {
      last = RunProgram(program.value(), w.db, w.goal);
      return last.ms;
    });
    table.AddRow({w.name, std::to_string(last.results), FmtSpread(m),
                  std::to_string(last.work)});
    report.AddMeasurement(w.name + "_ms", m);
    report.Add(w.name + "_work", static_cast<double>(last.work));
  }
  table.Print();

  report.WriteJson();
  return 0;
}
