// vada_explain: EXPLAIN / EXPLAIN ANALYZE for Vadalog-lite programs.
//
//   vada_explain [options] program.dlog
//
// Prints the evaluation plan the cost-based planner chooses for each
// rule — literal order, per-literal cost estimates and index-vs-scan
// decisions (DESIGN.md §5g). With --analyze the program is actually
// evaluated and the plan is annotated with the measured per-literal
// probes, candidates and wall time. EDB relations are loaded from CSV
// files passed as --csv REL=FILE; facts written directly in the program
// work too. With --goal=PRED the plan is that of the program Query runs
// for PRED: the goal's cone, with magic sets on closed demand
// (DESIGN.md §5h).

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/explain.h"
#include "datalog/goal_rewrite.h"
#include "datalog/parser.h"
#include "kb/csv.h"

namespace {

using vada::Relation;
using vada::Result;
using vada::Status;
using vada::datalog::Database;
using vada::datalog::EvalOptions;
using vada::datalog::Evaluator;
using vada::datalog::Parser;
using vada::datalog::PlanExplain;
using vada::datalog::Program;

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] program.dlog\n"
      << "\n"
      << "EXPLAIN / EXPLAIN ANALYZE for Vadalog-lite programs: the literal\n"
      << "order chosen by the cost-based planner, per-literal cost estimates\n"
      << "and index-vs-scan decisions; with --analyze, the measured probes,\n"
      << "candidates and time per literal.\n"
      << "\n"
      << "options:\n"
      << "  --csv REL=FILE  load FILE (CSV with header row) as EDB relation\n"
      << "                  REL; repeatable\n"
      << "  --analyze       evaluate the program and annotate the plan with\n"
      << "                  actual per-literal work (EXPLAIN ANALYZE)\n"
      << "  --json          print the plan as JSON instead of a text tree\n"
      << "  --no-indexes    plan without composite hash indexes\n"
      << "  --goal=PRED     explain the program Query runs for goal PRED\n"
      << "                  (rules the goal reaches; magic sets on closed\n"
      << "                  demand) and print what was rewritten\n"
      << "  -h, --help      this message\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool analyze = false;
  bool json = false;
  std::string goal;
  EvalOptions options;
  std::vector<std::pair<std::string, std::string>> csv_inputs;  // rel, path
  std::string program_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      Usage(argv[0]);
      return 0;
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-indexes") {
      options.planner.indexes = false;
    } else if (arg.rfind("--goal=", 0) == 0) {
      goal = arg.substr(std::strlen("--goal="));
    } else if (arg == "--csv") {
      if (i + 1 >= argc) {
        std::cerr << "--csv requires REL=FILE\n";
        return Usage(argv[0]);
      }
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::cerr << "--csv expects REL=FILE, got: " << spec << "\n";
        return Usage(argv[0]);
      }
      csv_inputs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg.rfind("--csv=", 0) == 0) {
      const std::string spec = arg.substr(std::strlen("--csv="));
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::cerr << "--csv expects REL=FILE, got: " << spec << "\n";
        return Usage(argv[0]);
      }
      csv_inputs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return Usage(argv[0]);
    } else if (program_file.empty()) {
      program_file = arg;
    } else {
      std::cerr << "more than one program file: " << arg << "\n";
      return Usage(argv[0]);
    }
  }
  if (program_file.empty()) return Usage(argv[0]);

  std::ifstream in(program_file);
  if (!in) {
    std::cerr << program_file << ": cannot open file\n";
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();

  Result<Program> program = Parser::Parse(source.str());
  if (!program.ok()) {
    std::cerr << program_file << ": " << program.status().ToString() << "\n";
    return 1;
  }

  Database db;
  for (const auto& [rel, path] : csv_inputs) {
    Result<Relation> relation = vada::ReadCsvFile(path, rel);
    if (!relation.ok()) {
      std::cerr << path << ": " << relation.status().ToString() << "\n";
      return 1;
    }
    db.LoadRelation(relation.value());
  }

  Program to_explain = std::move(program).value();
  if (!goal.empty()) {
    vada::datalog::GoalRewrite rewrite =
        vada::datalog::RewriteForGoal(to_explain, goal, db);
    if (!json) std::cout << "rewrite: " << rewrite.report.Summary() << "\n";
    if (rewrite.program.has_value()) to_explain = std::move(*rewrite.program);
  }

  Evaluator evaluator(std::move(to_explain), options);
  Status status = evaluator.Prepare();
  if (status.ok()) {
    PlanExplain plan;
    status = evaluator.Explain(&db, &plan, analyze);
    if (status.ok()) {
      std::cout << (json ? plan.ToJson() : plan.ToText());
      if (!json) std::cout.flush();
      else std::cout << "\n";
      return 0;
    }
  }
  std::cerr << program_file << ": " << status.ToString() << "\n";
  return 1;
}
