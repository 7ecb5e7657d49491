// Experiment J1 (extension beyond the paper): join-planner
// effectiveness. Composite hash-index probing (DESIGN.md §5f) against
// the full-scan oracle ({indexes = false}) on recursive Datalog
// workloads and on the full wrangling scenario. Both sides use the same
// cost-based literal order.
//
// "Join work" is EvalStats::join_probes + index_probes +
// index_candidates — every candidate fact touched plus every hash
// lookup — so the reduction factor is a machine-independent measure of
// how much of the join space the planner skips.
//
// Expected shape: on multi-way joins the indexed path replaces
// candidate-set scans with exact-match bucket enumeration, cutting join
// work by well over an order of magnitude; wall time follows at the
// larger sizes. The scenario row (the bench_scale workload) must show
// at least a 5x reduction.
//
// Every ms column is the median [p10, p90] of kReps runs after kWarmup
// discarded ones, the two sides of a row interleaved run by run
// (MeasureInterleaved); BENCH_join_planner.json records each under
// <name>_ms with the spread next to it (<name>_ms_p10, _p90, _mad).
// Join work and results are deterministic and come from the last run.
#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datalog/evaluator.h"
#include "datalog/goal_rewrite.h"
#include "datalog/parser.h"
#include "obs/metrics.h"
#include "wrangler/session.h"

namespace {

using namespace vada;
using namespace vada::bench;
using datalog::Database;
using datalog::EvalOptions;
using datalog::EvalStats;
using datalog::Evaluator;
using datalog::Parser;
using datalog::PlannerOptions;
using datalog::Program;

constexpr size_t kReps = 11;
constexpr size_t kWarmup = 1;

Database ChainDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  return db;
}

Database GridDb(int side) {
  Database db;
  auto id = [side](int r, int c) { return Value::Int(r * side + c); };
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      if (c + 1 < side) db.Insert("edge", Tuple({id(r, c), id(r, c + 1)}));
      if (r + 1 < side) db.Insert("edge", Tuple({id(r, c), id(r + 1, c)}));
    }
  }
  return db;
}

/// Triangle counting over a random-ish graph: a three-way self-join
/// whose inner atoms have two bound positions — the case a composite
/// index serves and a single-column seek cannot.
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

struct Measured {
  double ms = 0;
  size_t work = 0;     // join_probes + index_probes + index_candidates
  size_t results = 0;
  EvalStats stats;
};

Measured RunProgram(const Program& program, const Database& edb,
                    const PlannerOptions& planner, const char* goal) {
  Measured m;
  Database db = edb;
  EvalOptions opts;
  opts.planner = planner;
  Evaluator eval(program, opts);
  if (!eval.Prepare().ok()) return m;
  m.ms = TimeMs([&] { (void)eval.Run(&db, &m.stats); });
  m.work = m.stats.join_probes + m.stats.index_probes +
           m.stats.index_candidates;
  m.results = db.FactCount(goal);
  return m;
}

size_t SessionJoinWork(const obs::MetricsSnapshot& snapshot) {
  return static_cast<size_t>(
      snapshot.Value("vada_datalog_join_probes") +
      snapshot.Value("vada_datalog_index_probes_total") +
      snapshot.Value("vada_datalog_index_candidates_total"));
}

}  // namespace

int main() {
  BenchReport report("join_planner");
  Table table({"workload", "results", "oracle ms [p10, p90]",
               "planner ms [p10, p90]", "oracle work", "planner work",
               "work reduction"});

  const PlannerOptions oracle{.indexes = false};
  const PlannerOptions planner;  // defaults: indexes on

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
      {"tc_grid_12",
       "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).", "tc",
       GridDb(12)},
      {"triangles_400",
       "tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).", "tri",
       TriangleDb(60, 400)},
      {"two_col_join",
       "j(X, Y) :- edge(X, Y), edge(X, Z), edge(Z, Y).", "j",
       TriangleDb(80, 600)},
  };
  for (Workload& w : workloads) {
    Result<Program> program = Parser::Parse(w.program);
    if (!program.ok()) {
      std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                   program.status().ToString().c_str());
      continue;
    }
    Measured base, fast;
    std::vector<Measurement> ms = MeasureInterleaved(
        kReps, kWarmup,
        {[&] {
           base = RunProgram(program.value(), w.db, oracle, w.goal);
           return base.ms;
         },
         [&] {
           fast = RunProgram(program.value(), w.db, planner, w.goal);
           return fast.ms;
         }});
    double reduction =
        fast.work > 0 ? static_cast<double>(base.work) / fast.work : 0.0;
    if (base.results != fast.results) {
      std::fprintf(stderr, "%s: RESULT MISMATCH %zu vs %zu\n", w.name.c_str(),
                   base.results, fast.results);
    }
    table.AddRow({w.name, std::to_string(fast.results), FmtSpread(ms[0]),
                  FmtSpread(ms[1]), std::to_string(base.work),
                  std::to_string(fast.work), Fmt(reduction, 1) + "x"});
    report.Add(w.name + "_oracle_work", static_cast<double>(base.work));
    report.Add(w.name + "_planner_work", static_cast<double>(fast.work));
    report.Add(w.name + "_work_reduction", reduction);
    report.AddMeasurement(w.name + "_oracle_ms", ms[0]);
    report.AddMeasurement(w.name + "_planner_ms", ms[1]);
    report.Add(w.name + "_index_builds",
               static_cast<double>(fast.stats.index_builds));
  }

  // J2: what Query ships for a goal (DESIGN.md §5h) against the
  // default planner on the written program. Query evaluates only the
  // goal's cone and applies magic sets on closed demand, so on the
  // left-recursive rows join work covers the demanded slice of the
  // recursion instead of the full transitive closure. Query's time
  // includes the rewrite.
  std::printf("J2: Query (goal-directed rewrite) vs planner alone\n\n");
  Table opt_table({"workload", "results", "planner ms [p10, p90]",
                   "query ms [p10, p90]", "planner work", "query work",
                   "work reduction", "rewrite"});
  // Left-recursive tc keeps the bound source in the recursive call, so
  // demand stays the goal's constant (closed). Right-recursive tc and
  // same-generation demand every node the recursion passes through
  // (open demand), so Query declines magic there.
  Workload goal_workloads[] = {
      {"goal_tc_chain_256",
       "tc(X, Y) :- edge(X, Y). tc(X, Y) :- tc(X, Z), edge(Z, Y). "
       "q(Y) :- tc(1, Y).",
       "q", ChainDb(256)},
      {"goal_tc_grid_12",
       "tc(X, Y) :- edge(X, Y). tc(X, Y) :- tc(X, Z), edge(Z, Y). "
       "q(Y) :- tc(0, Y).",
       "q", GridDb(12)},
      {"goal_same_gen_chain_128",
       "sg(X, X) :- edge(X, Y). sg(X, Y) :- edge(A, X), sg(A, B), edge(B, Y). "
       "q(Y) :- sg(4, Y).",
       "q", ChainDb(128)},
      {"goal_tc_right_chain_256",
       "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y). "
       "q(Y) :- tc(1, Y).",
       "q", ChainDb(256)},
  };
  double best_opt_reduction = 0.0;
  for (Workload& w : goal_workloads) {
    Result<Program> program = Parser::Parse(w.program);
    if (!program.ok()) {
      std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                   program.status().ToString().c_str());
      continue;
    }
    Measured base;
    size_t results = 0;
    size_t query_work = 0;
    std::vector<Measurement> ms = MeasureInterleaved(
        kReps, kWarmup,
        {[&] {
           base = RunProgram(program.value(), w.db, planner, w.goal);
           return base.ms;
         },
         [&] {
           obs::MetricsRegistry metrics;
           EvalOptions query_options;
           query_options.metrics = &metrics;
           Database db = w.db;
           double query_ms = TimeMs([&] {
             Result<std::vector<Tuple>> answer =
                 datalog::Query(program.value(), &db, w.goal, query_options);
             if (answer.ok()) results = answer.value().size();
           });
           query_work = SessionJoinWork(metrics.Snapshot());
           return query_ms;
         }});
    datalog::RewriteReport rewrite =
        datalog::RewriteForGoal(program.value(), w.goal, w.db).report;
    double reduction = query_work > 0
                           ? static_cast<double>(base.work) / query_work
                           : 0.0;
    best_opt_reduction = std::max(best_opt_reduction, reduction);
    if (base.results != results) {
      std::fprintf(stderr, "%s: RESULT MISMATCH %zu vs %zu\n", w.name.c_str(),
                   base.results, results);
    }
    opt_table.AddRow({w.name, std::to_string(results), FmtSpread(ms[0], 2),
                      FmtSpread(ms[1], 2), std::to_string(base.work),
                      std::to_string(query_work), Fmt(reduction, 1) + "x",
                      rewrite.Summary()});
    report.Add(w.name + "_planner_work", static_cast<double>(base.work));
    report.Add(w.name + "_query_work", static_cast<double>(query_work));
    report.Add(w.name + "_work_reduction", reduction);
    report.AddMeasurement(w.name + "_planner_ms", ms[0]);
    report.AddMeasurement(w.name + "_query_ms", ms[1]);
    report.Add(w.name + "_magic_applied", rewrite.magic_applied ? 1.0 : 0.0);
  }
  opt_table.Print();

  // The bench_scale workload end to end: the full wrangling session over
  // the paper's demo scenario at 1000 properties, oracle vs planner.
  // This is the acceptance row: >= 5x join-work reduction.
  auto run_session = [](const PlannerOptions& p, size_t* work, size_t* rows) {
    Scenario sc = MakeScenario(4000, 1000, 100);
    WranglerConfig config;
    config.planner = p;
    WranglingSession session(config);
    Status s = session.SetTargetSchema(PaperTargetSchema());
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
    if (!s.ok()) {
      std::fprintf(stderr, "scenario: %s\n", s.ToString().c_str());
      return 0.0;
    }
    *work = SessionJoinWork(session.MetricsReport().snapshot);
    *rows = session.result() != nullptr ? session.result()->size() : 0;
    return ms;
  };
  size_t base_work = 0, fast_work = 0, base_rows = 0, fast_rows = 0;
  std::vector<Measurement> session_ms = MeasureInterleaved(
      kReps, kWarmup,
      {[&] { return run_session(oracle, &base_work, &base_rows); },
       [&] { return run_session(planner, &fast_work, &fast_rows); }});
  double reduction =
      fast_work > 0 ? static_cast<double>(base_work) / fast_work : 0.0;
  if (base_rows != fast_rows) {
    std::fprintf(stderr, "scenario: RESULT MISMATCH %zu vs %zu\n", base_rows,
                 fast_rows);
  }
  table.AddRow({"scenario_1000", std::to_string(fast_rows),
                FmtSpread(session_ms[0]), FmtSpread(session_ms[1]),
                std::to_string(base_work),
                std::to_string(fast_work), Fmt(reduction, 1) + "x"});
  report.Add("scenario_1000_oracle_work", static_cast<double>(base_work));
  report.Add("scenario_1000_planner_work", static_cast<double>(fast_work));
  report.Add("scenario_1000_work_reduction", reduction);
  report.AddMeasurement("scenario_1000_oracle_ms", session_ms[0]);
  report.AddMeasurement("scenario_1000_planner_ms", session_ms[1]);

  std::printf(
      "\nJ1: join planner (composite indexes) vs full-scan oracle\n\n");
  table.Print();
  std::printf("\nscenario_1000 join-work reduction: %.1fx (target >= 5x)\n",
              reduction);
  std::printf("best Query join-work reduction: %.1fx (target >= 2x)\n",
              best_opt_reduction);
  report.WriteJson();
  return (reduction >= 5.0 && best_opt_reduction >= 2.0) ? 0 : 1;
}
