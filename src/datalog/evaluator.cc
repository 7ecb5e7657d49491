#include "datalog/evaluator.h"

#include <algorithm>
#include <map>
#include <set>

#include "datalog/explain.h"
#include "datalog/goal_rewrite.h"
#include "datalog/rule_executor.h"
#include "datalog/symbol_table.h"
#include "obs/span.h"

namespace vada::datalog {

std::optional<int> CompareValues(const Value& a, const Value& b) {
  std::optional<double> da = a.AsDouble();
  std::optional<double> db = b.AsDouble();
  if (da.has_value() && db.has_value()) {
    if (*da < *db) return -1;
    if (*da > *db) return 1;
    return 0;
  }
  if (a.type() != b.type()) return std::nullopt;
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

std::optional<Value> ApplyArith(ArithOp op, const Value& a, const Value& b) {
  std::optional<double> da = a.AsDouble();
  std::optional<double> db = b.AsDouble();
  if (!da.has_value() || !db.has_value()) return std::nullopt;
  bool both_int =
      a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  switch (op) {
    case ArithOp::kAdd:
      return both_int ? Value::Int(a.int_value() + b.int_value())
                      : Value::Double(*da + *db);
    case ArithOp::kSub:
      return both_int ? Value::Int(a.int_value() - b.int_value())
                      : Value::Double(*da - *db);
    case ArithOp::kMul:
      return both_int ? Value::Int(a.int_value() * b.int_value())
                      : Value::Double(*da * *db);
    case ArithOp::kDiv:
      if (*db == 0.0) return std::nullopt;
      return Value::Double(*da / *db);
    case ArithOp::kNone:
      return a;
  }
  return std::nullopt;
}

bool EvalCompare(CompareOp op, const Value& a, const Value& b) {
  std::optional<int> cmp = CompareValues(a, b);
  switch (op) {
    case CompareOp::kEq:
      return cmp.has_value() && *cmp == 0;
    case CompareOp::kNe:
      return !cmp.has_value() || *cmp != 0;
    case CompareOp::kLt:
      return cmp.has_value() && *cmp < 0;
    case CompareOp::kLe:
      return cmp.has_value() && *cmp <= 0;
    case CompareOp::kGt:
      return cmp.has_value() && *cmp > 0;
    case CompareOp::kGe:
      return cmp.has_value() && *cmp >= 0;
  }
  return false;
}

namespace {

/// Derived head rows of one rule evaluation: a flat row-major id buffer
/// (rule.head.terms.size() ids per row) plus an explicit row count — the
/// count cannot be derived from the buffer for zero-arity heads like
/// `ready()`. Derived facts stay ids end to end: they re-enter the
/// database through InsertIds without ever materializing a Value.
struct ProducedRows {
  std::vector<SymbolId> ids;
  size_t rows = 0;
};

void AppendHeadIds(const CompiledRule& rule, const BindingEnv& env,
                   ProducedRows* out) {
  for (const CompiledTerm& t : rule.head.terms) {
    out->ids.push_back(t.is_var ? env.id(t.slot) : t.const_id);
  }
  ++out->rows;
}

/// Materializes one flat id row into a Tuple (boundary consumers only:
/// provenance records).
Tuple IdsToTuple(const SymbolId* ids, size_t n) {
  const SymbolTable& table = SymbolTable::Global();
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(table.value(ids[i]));
  return Tuple(std::move(values));
}

/// Id-level Contains against owned-or-borrowed storage (the provenance
/// duplicate check; mirrors Database::Contains minus the Value->id
/// translation, which the ids already are).
bool DbContainsIds(const Database& db, const std::string& predicate,
                   const SymbolId* ids, size_t n) {
  Database::View v = db.view(predicate);
  return v.valid() && v.arity() == n && v.ContainsIds(ids);
}

/// Evaluates a non-aggregate rule and collects candidate head rows as
/// flat ids (head-arity ids per solution). When `premises_out` is
/// non-null it receives, parallel to the produced rows, the ground
/// positive body atoms of each solution (for provenance).
void EvaluateRule(
    const CompiledRule& rule, const Database& db, const Database* delta,
    size_t delta_position, const PlannerOptions& planner, ProducedRows* out,
    std::vector<std::vector<std::pair<std::string, Tuple>>>* premises_out =
        nullptr,
    JoinWork* work = nullptr,
    std::vector<LiteralRuntime>* lit_stats = nullptr) {
  RuleExecutor exec(rule, db, delta, delta_position, planner);
  exec.set_lit_stats(lit_stats);
  exec.ForEachSolution([&](const BindingEnv& env) {
    AppendHeadIds(rule, env, out);
    if (premises_out != nullptr) {
      premises_out->push_back(exec.GroundPositiveAtoms());
    }
  });
  if (work != nullptr) work->Add(exec.work());
}

/// Evaluates an aggregate rule: groups body solutions by the non-aggregate
/// head terms; each aggregate ranges over the *distinct values* its
/// variable takes within the group (set semantics). Grouping and
/// aggregation materialize Values — min/max/sum need Value ordering and
/// arithmetic, which id identity cannot express.
void EvaluateAggregateRule(const CompiledRule& rule, const Database& db,
                           const PlannerOptions& planner,
                           std::vector<Tuple>* out,
                           JoinWork* work = nullptr,
                           std::vector<LiteralRuntime>* lit_stats = nullptr) {
  struct GroupState {
    std::vector<std::set<Value>> distinct;  // one per aggregate
  };
  std::map<Tuple, GroupState> groups;
  const SymbolTable& table = SymbolTable::Global();

  RuleExecutor exec(rule, db, nullptr, kNoDelta, planner);
  exec.set_lit_stats(lit_stats);
  exec.ForEachSolution([&](const BindingEnv& env) {
    std::vector<Value> key;
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      bool is_agg = false;
      for (const AggSpec& spec : rule.aggregates) {
        if (spec.head_position == i) {
          is_agg = true;
          break;
        }
      }
      if (is_agg) continue;
      const CompiledTerm& t = rule.head.terms[i];
      key.push_back(t.is_var ? table.value(env.id(t.slot)) : t.constant);
    }
    GroupState& state = groups[Tuple(std::move(key))];
    if (state.distinct.empty()) state.distinct.resize(rule.aggregates.size());
    for (size_t a = 0; a < rule.aggregates.size(); ++a) {
      state.distinct[a].insert(table.value(env.id(rule.aggregates[a].slot)));
    }
  });

  if (work != nullptr) work->Add(exec.work());

  for (const auto& [key, state] : groups) {
    std::vector<Value> values(rule.head.terms.size());
    size_t key_index = 0;
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      bool is_agg = false;
      for (size_t a = 0; a < rule.aggregates.size(); ++a) {
        if (rule.aggregates[a].head_position == i) {
          const std::set<Value>& vals = state.distinct[a];
          switch (rule.aggregates[a].func) {
            case AggFunc::kCount:
              values[i] = Value::Int(static_cast<int64_t>(vals.size()));
              break;
            case AggFunc::kMin:
              values[i] = vals.empty() ? Value::Null() : *vals.begin();
              break;
            case AggFunc::kMax:
              values[i] = vals.empty() ? Value::Null() : *vals.rbegin();
              break;
            case AggFunc::kSum:
            case AggFunc::kAvg: {
              double sum = 0.0;
              bool all_int = true;
              size_t n = 0;
              for (const Value& v : vals) {
                std::optional<double> d = v.AsDouble();
                if (!d.has_value()) continue;
                if (v.type() != ValueType::kInt) all_int = false;
                sum += *d;
                ++n;
              }
              if (rule.aggregates[a].func == AggFunc::kAvg) {
                values[i] = (n == 0) ? Value::Null() : Value::Double(sum / n);
              } else {
                values[i] = all_int ? Value::Int(static_cast<int64_t>(sum))
                                    : Value::Double(sum);
              }
              break;
            }
          }
          is_agg = true;
          break;
        }
      }
      if (!is_agg) {
        values[i] = key.at(key_index++);
      }
    }
    out->push_back(Tuple(std::move(values)));
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN support (datalog/explain.h). Only materialized when a caller
// asks for a plan; Run() never touches any of this.
// ---------------------------------------------------------------------------

/// The access path SelectCandidates takes for `lit`. It depends only on
/// the compiled bound prefix and the planner options, never on
/// cardinality, so the prediction is exact.
std::string PredictAccess(const CompiledLiteral& lit,
                          const PlannerOptions& planner) {
  switch (lit.kind) {
    case Literal::Kind::kAtom:
      if (lit.bound_positions.empty() || !planner.indexes) return "scan";
      return "index";
    case Literal::Kind::kNegatedAtom:
      return "check";
    case Literal::Kind::kComparison:
    case Literal::Kind::kAssignment:
      return "filter";
  }
  return "?";
}

const char* LiteralKindName(Literal::Kind kind) {
  switch (kind) {
    case Literal::Kind::kAtom:
      return "atom";
    case Literal::Kind::kNegatedAtom:
      return "negation";
    case Literal::Kind::kComparison:
      return "comparison";
    case Literal::Kind::kAssignment:
      return "assignment";
  }
  return "?";
}

RuleExplain BuildRuleExplain(const CompiledRule& rule,
                             const PlannerOptions& planner) {
  RuleExplain out;
  out.text = rule.text;
  out.aggregate = !rule.aggregates.empty();
  out.literals.reserve(rule.body.size());
  for (const CompiledLiteral& lit : rule.body) {
    LiteralExplain le;
    le.body_index = lit.body_index;
    if (rule.source != nullptr && lit.body_index < rule.source->body.size()) {
      le.text = rule.source->body[lit.body_index].ToString();
    }
    le.kind = LiteralKindName(lit.kind);
    le.bound_positions = lit.bound_positions;
    le.estimated_cost = lit.estimated_cost;
    le.access = PredictAccess(lit, planner);
    out.literals.push_back(std::move(le));
  }
  return out;
}

}  // namespace

Evaluator::Evaluator(Program program, EvalOptions options)
    : program_(std::move(program)), options_(options) {}

Status Evaluator::Prepare() {
  VADA_RETURN_IF_ERROR(program_.Validate());
  Result<Stratification> strat = Stratify(program_);
  if (!strat.ok()) return strat.status();
  stratification_ = std::move(strat).value();
  prepared_ = true;
  return Status::OK();
}

Status Evaluator::Run(Database* db, EvalStats* stats,
                      Provenance* provenance) {
  return RunInternal(db, stats, provenance, nullptr);
}

Status Evaluator::Explain(Database* db, PlanExplain* out, bool analyze,
                          EvalStats* stats) {
  if (!prepared_) {
    return Status::FailedPrecondition("Evaluator::Prepare() was not called");
  }
  if (out == nullptr) {
    return Status::InvalidArgument("Explain requires a PlanExplain output");
  }
  out->strata.clear();
  out->analyzed = analyze;
  if (analyze) return RunInternal(db, stats, nullptr, out);

  // Compile-only pass: plan every stratum against the database as-is,
  // mirroring RunInternal's aggregate-rules-first ordering so EXPLAIN
  // and EXPLAIN ANALYZE render rules in the same sequence.
  for (const std::vector<std::string>& stratum : stratification_.strata) {
    std::set<std::string> stratum_preds(stratum.begin(), stratum.end());
    StratumExplain sx;
    sx.predicates = stratum;
    std::vector<RuleExplain> normal;
    for (const Rule& r : program_.rules) {
      if (stratum_preds.count(r.head.predicate) == 0) continue;
      RuleCompiler compiler(stratum_preds, db);
      CompiledRule cr = compiler.Compile(r);
      RuleExplain rex = BuildRuleExplain(cr, options_.planner);
      if (rex.aggregate) {
        sx.rules.push_back(std::move(rex));
      } else {
        normal.push_back(std::move(rex));
      }
    }
    for (RuleExplain& rex : normal) sx.rules.push_back(std::move(rex));
    out->strata.push_back(std::move(sx));
  }
  return Status::OK();
}

Status Evaluator::RunInternal(Database* db, EvalStats* stats,
                              Provenance* provenance, PlanExplain* explain) {
  if (!prepared_) {
    return Status::FailedPrecondition("Evaluator::Prepare() was not called");
  }
  EvalStats local_stats;
  EvalStats* st = (stats != nullptr) ? stats : &local_stats;
  obs::Histogram* stratum_hist =
      options_.metrics == nullptr
          ? nullptr
          : options_.metrics->GetHistogram(
                "vada_datalog_stratum_seconds",
                "Wall time per stratum fixpoint",
                obs::Histogram::DefaultLatencyBucketsSeconds());

  for (const std::vector<std::string>& stratum : stratification_.strata) {
    obs::ScopedSpan stratum_span(nullptr, stratum_hist, "stratum");
    std::set<std::string> stratum_preds(stratum.begin(), stratum.end());

    // Compile this stratum's rules.
    std::vector<CompiledRule> normal_rules;
    std::vector<CompiledRule> aggregate_rules;
    for (const Rule& r : program_.rules) {
      if (stratum_preds.count(r.head.predicate) == 0) continue;
      RuleCompiler compiler(stratum_preds, db);
      CompiledRule cr = compiler.Compile(r);
      if (cr.aggregates.empty()) {
        normal_rules.push_back(std::move(cr));
      } else {
        aggregate_rules.push_back(std::move(cr));
      }
    }

    // EXPLAIN ANALYZE bookkeeping: one RuleExplain per compiled rule,
    // aggregates first to match execution order. The pointers stay
    // valid because sx.rules is fully reserved before any is taken.
    std::vector<RuleExplain*> agg_rex(aggregate_rules.size(), nullptr);
    std::vector<RuleExplain*> normal_rex(normal_rules.size(), nullptr);
    if (explain != nullptr) {
      explain->strata.emplace_back();
      StratumExplain& sx = explain->strata.back();
      sx.predicates = stratum;
      sx.rules.reserve(aggregate_rules.size() + normal_rules.size());
      for (size_t i = 0; i < aggregate_rules.size(); ++i) {
        sx.rules.push_back(
            BuildRuleExplain(aggregate_rules[i], options_.planner));
        agg_rex[i] = &sx.rules.back();
      }
      for (size_t i = 0; i < normal_rules.size(); ++i) {
        sx.rules.push_back(BuildRuleExplain(normal_rules[i], options_.planner));
        normal_rex[i] = &sx.rules.back();
      }
    }

    // Aggregate rules first: stratification guarantees their bodies are
    // complete (all body predicates lie in strictly lower strata).
    for (size_t ri = 0; ri < aggregate_rules.size(); ++ri) {
      const CompiledRule& rule = aggregate_rules[ri];
      RuleExplain* rex = agg_rex[ri];
      ++st->rule_applications;
      if (rex != nullptr) ++rex->applications;
      std::vector<Tuple> produced;
      JoinWork agg_work;
      std::vector<LiteralRuntime> lit_rt;
      if (rex != nullptr) lit_rt.resize(rule.body.size());
      EvaluateAggregateRule(rule, *db, options_.planner, &produced, &agg_work,
                            rex != nullptr && !lit_rt.empty() ? &lit_rt
                                                              : nullptr);
      agg_work.MergeInto(st);
      if (rex != nullptr) {
        for (size_t i = 0; i < lit_rt.size(); ++i) {
          rex->literals[i].actual.Add(lit_rt[i]);
        }
      }
      for (Tuple& t : produced) {
        if (provenance != nullptr && !db->Contains(rule.head.predicate, t)) {
          // Aggregates summarise whole groups; record the rule alone.
          provenance->Record(rule.head.predicate, t, Derivation{rule.text, {}});
        }
        if (db->Insert(rule.head.predicate, t)) {
          ++st->facts_derived;
          if (rex != nullptr) ++rex->facts_derived;
        }
      }
    }

    if (normal_rules.empty()) continue;

    if (!options_.semi_naive) {
      // Naive fixpoint: re-evaluate everything until no new facts.
      for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
        ++st->iterations;
        bool any_new = false;
        for (size_t ri = 0; ri < normal_rules.size(); ++ri) {
          const CompiledRule& rule = normal_rules[ri];
          RuleExplain* rex = normal_rex[ri];
          ++st->rule_applications;
          if (rex != nullptr) ++rex->applications;
          ProducedRows produced;
          std::vector<std::vector<std::pair<std::string, Tuple>>> premises;
          JoinWork naive_work;
          std::vector<LiteralRuntime> lit_rt;
          if (rex != nullptr) lit_rt.resize(rule.body.size());
          EvaluateRule(rule, *db, nullptr, kNoDelta, options_.planner,
                       &produced, provenance != nullptr ? &premises : nullptr,
                       &naive_work,
                       rex != nullptr && !lit_rt.empty() ? &lit_rt : nullptr);
          naive_work.MergeInto(st);
          if (rex != nullptr) {
            for (size_t i = 0; i < lit_rt.size(); ++i) {
              rex->literals[i].actual.Add(lit_rt[i]);
            }
          }
          size_t head_arity = rule.head.terms.size();
          for (size_t i = 0; i < produced.rows; ++i) {
            const SymbolId* row = produced.ids.data() + i * head_arity;
            if (provenance != nullptr &&
                !DbContainsIds(*db, rule.head.predicate, row, head_arity)) {
              provenance->Record(rule.head.predicate,
                                 IdsToTuple(row, head_arity),
                                 Derivation{rule.text, premises[i]});
            }
            if (db->InsertIds(rule.head.predicate, row, head_arity)) {
              ++st->facts_derived;
              any_new = true;
              if (rex != nullptr) ++rex->facts_derived;
            }
          }
        }
        if (!any_new) break;
        if (iter + 1 == options_.max_iterations) {
          return Status::Internal("naive evaluation exceeded max_iterations");
        }
      }
      continue;
    }

    // Semi-naive with batch rounds: round 0 evaluates every rule in
    // full; later rounds evaluate only recursive rules, once per
    // recursive occurrence with that occurrence restricted to the
    // previous round's delta. Every task of a round reads the same
    // round-start state — all tasks are evaluated into their own buffers
    // before any is merged — and results are merged in task order
    // (DESIGN.md §5e).
    struct RuleTask {
      const CompiledRule* rule = nullptr;
      RuleExplain* rex = nullptr;  // EXPLAIN ANALYZE target, else null
      size_t delta_position = kNoDelta;
      ProducedRows produced;
      std::vector<std::vector<std::pair<std::string, Tuple>>> premises;
      JoinWork work;
      std::vector<LiteralRuntime> lit_stats;  // filled iff rex != nullptr
    };

    auto run_round = [&](std::vector<RuleTask>* tasks, const Database* delta,
                         Database* delta_out) {
      for (RuleTask& task : *tasks) {
        ++st->rule_applications;
        if (task.rex != nullptr) {
          ++task.rex->applications;
          task.lit_stats.resize(task.rule->body.size());
        }
        EvaluateRule(*task.rule, *db, delta, task.delta_position,
                     options_.planner, &task.produced,
                     provenance != nullptr ? &task.premises : nullptr,
                     &task.work,
                     task.lit_stats.empty() ? nullptr : &task.lit_stats);
      }
      for (RuleTask& task : *tasks) {
        task.work.MergeInto(st);
        if (task.rex != nullptr) {
          for (size_t i = 0; i < task.lit_stats.size(); ++i) {
            task.rex->literals[i].actual.Add(task.lit_stats[i]);
          }
        }
        const CompiledRule& rule = *task.rule;
        size_t head_arity = rule.head.terms.size();
        for (size_t i = 0; i < task.produced.rows; ++i) {
          const SymbolId* row = task.produced.ids.data() + i * head_arity;
          if (provenance != nullptr &&
              !DbContainsIds(*db, rule.head.predicate, row, head_arity)) {
            provenance->Record(rule.head.predicate,
                               IdsToTuple(row, head_arity),
                               Derivation{rule.text, task.premises[i]});
          }
          if (db->InsertIds(rule.head.predicate, row, head_arity)) {
            ++st->facts_derived;
            if (task.rex != nullptr) ++task.rex->facts_derived;
            delta_out->InsertIds(rule.head.predicate, row, head_arity);
          }
        }
      }
    };

    Database delta;
    ++st->iterations;
    {
      std::vector<RuleTask> tasks(normal_rules.size());
      for (size_t ri = 0; ri < normal_rules.size(); ++ri) {
        tasks[ri].rule = &normal_rules[ri];
        tasks[ri].rex = normal_rex[ri];
      }
      run_round(&tasks, nullptr, &delta);
    }

    for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
      if (delta.TotalFacts() == 0) break;
      ++st->iterations;
      Database next_delta;
      std::vector<RuleTask> tasks;
      for (size_t ri = 0; ri < normal_rules.size(); ++ri) {
        const CompiledRule& rule = normal_rules[ri];
        for (size_t pos : rule.recursive_positions) {
          if (delta.FactCount(rule.body[pos].atom.predicate) == 0) continue;
          RuleTask& task = tasks.emplace_back();
          task.rule = &rule;
          task.rex = normal_rex[ri];
          task.delta_position = pos;
        }
      }
      run_round(&tasks, &delta, &next_delta);
      delta = std::move(next_delta);
      if (iter + 1 == options_.max_iterations && delta.TotalFacts() != 0) {
        return Status::Internal("semi-naive evaluation exceeded max_iterations");
      }
    }
  }

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m->GetCounter("vada_datalog_rules_fired",
                  "Rule body evaluations attempted")
        ->Increment(st->rule_applications);
    m->GetCounter("vada_datalog_facts_derived", "New IDB facts derived")
        ->Increment(st->facts_derived);
    m->GetCounter("vada_datalog_iterations",
                  "Fixpoint rounds across all strata")
        ->Increment(st->iterations);
    m->GetCounter("vada_datalog_join_probes",
                  "Candidate facts scanned by non-indexed body atoms "
                  "(full scans)")
        ->Increment(st->join_probes);
    m->GetCounter("vada_datalog_index_probes_total",
                  "Composite hash-index lookups by body atoms")
        ->Increment(st->index_probes);
    m->GetCounter("vada_datalog_index_candidates_total",
                  "Facts enumerated from composite index buckets")
        ->Increment(st->index_candidates);
    m->GetCounter("vada_datalog_index_builds_total",
                  "Composite hash indexes built lazily")
        ->Increment(st->index_builds);
    // One sample per run: fraction of join work resolved through
    // composite indexes (probe-vs-scan mix; 1.0 = fully indexed).
    size_t total_work = st->join_probes + st->index_probes +
                        st->index_candidates;
    if (total_work > 0) {
      m->GetHistogram("vada_datalog_indexed_work_ratio",
                      "Share of join work served by composite indexes",
                      {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
          ->Observe(static_cast<double>(st->index_probes +
                                        st->index_candidates) /
                    static_cast<double>(total_work));
    }
    m->GetCounter("vada_datalog_evaluations", "Evaluator::Run invocations")
        ->Increment();
  }
  return Status::OK();
}

Result<std::vector<Tuple>> Query(const Program& program, Database* db,
                                 const std::string& goal_predicate,
                                 const EvalOptions& options) {
  // The rewritten program derives exactly the same goal facts (the
  // differential fuzz harness checks this bit-for-bit), so Query, which
  // only exposes the goal relation, may substitute it freely.
  GoalRewrite rewrite = RewriteForGoal(program, goal_predicate, *db);
  Evaluator eval(rewrite.program.has_value() ? std::move(*rewrite.program)
                                             : program,
                 options);
  VADA_RETURN_IF_ERROR(eval.Prepare());
  VADA_RETURN_IF_ERROR(eval.Run(db));
  std::vector<Tuple> out = db->facts(goal_predicate);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vada::datalog
