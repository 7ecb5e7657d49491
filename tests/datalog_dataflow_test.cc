// Tests for the dataflow analysis layer (datalog/analysis/dataflow):
// the abstract lattices, type/constant/interval inference to
// fixpoint, the four lint verdicts; and for Query's goal-directed
// rewrite (datalog/goal_rewrite.h): cone pruning, magic sets only on
// closed demand, and the property that rewritten programs always
// re-validate and re-stratify across 500 random programs.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/analysis/analyzer.h"
#include "datalog/analysis/dataflow/dataflow.h"
#include "datalog/analysis/dataflow/lattice.h"
#include "datalog/evaluator.h"
#include "datalog/goal_rewrite.h"
#include "datalog/parser.h"
#include "datalog/stratify.h"
#include "datalog_random_program.h"
#include "kb/database.h"

namespace vada::datalog::dataflow {
namespace {

// ---------------------------------------------------------------------
// Lattice units.
// ---------------------------------------------------------------------

TEST(LatticeTest, TypeSetOps) {
  TypeSet ints = TypeSet::Of(ValueType::kInt);
  TypeSet strings = TypeSet::Of(ValueType::kString);
  EXPECT_TRUE(ints.Intersect(strings).empty());
  EXPECT_TRUE(ints.Union(strings).Contains(ValueType::kInt));
  EXPECT_TRUE(ints.Union(strings).Contains(ValueType::kString));
  EXPECT_TRUE(ints.NumericOnly());
  EXPECT_FALSE(ints.Union(strings).NumericOnly());
  EXPECT_TRUE(TypeSet::Numeric().ContainsNumeric());
  EXPECT_TRUE(TypeSet::Top().is_top());
  EXPECT_TRUE(TypeSet::Bottom().empty());
}

TEST(LatticeTest, IntervalOps) {
  Interval a{0, 10};
  Interval b{5, 20};
  EXPECT_EQ(a.Intersect(b), (Interval{5, 10}));
  EXPECT_EQ(a.Union(b), (Interval{0, 20}));
  EXPECT_TRUE(a.Intersect(Interval{11, 12}).empty());
  // Widening: a moved bound jumps to infinity.
  Interval widened = Interval{0, 11}.WidenFrom(a);
  EXPECT_EQ(widened.lo, 0);
  EXPECT_TRUE(std::isinf(widened.hi));
}

TEST(LatticeTest, ConstSetExactVsCoerced) {
  ConstSet ints = ConstSet::Of(Value::Int(3));
  EXPECT_TRUE(ints.Contains(Value::Int(3)));
  // Exact membership distinguishes Int(3) from Double(3.0) — atom joins
  // match exactly.
  EXPECT_FALSE(ints.Contains(Value::Double(3.0)));
  // Coerced membership does not — comparisons coerce.
  EXPECT_TRUE(ints.ContainsCoerced(Value::Double(3.0)));

  ConstSet doubles = ConstSet::Of(Value::Double(3.0));
  EXPECT_TRUE(ints.Intersect(doubles).empty());
  ConstSet coerced = ints.IntersectCoerced(doubles);
  EXPECT_TRUE(coerced.Contains(Value::Int(3)));
  EXPECT_TRUE(coerced.Contains(Value::Double(3.0)));
}

TEST(LatticeTest, ConstSetOverflowsToTop) {
  ConstSet s;
  for (size_t i = 0; i <= ConstSet::kMaxConsts; ++i) {
    s.Insert(Value::Int(static_cast<int64_t>(i)));
  }
  EXPECT_TRUE(s.is_top());
}

TEST(LatticeTest, PosFactsEmptiness) {
  EXPECT_TRUE(PosFacts::Bottom().empty());
  EXPECT_FALSE(PosFacts::Top().empty());
  // Numeric-only position with an empty interval is empty.
  PosFacts numeric = PosFacts::FromValue(Value::Int(5));
  numeric.range = Interval::Empty();
  numeric.consts = ConstSet::Top();
  EXPECT_TRUE(numeric.empty());
  // Meet of disjoint constants is empty.
  PosFacts three = PosFacts::FromValue(Value::Int(3));
  PosFacts four = PosFacts::FromValue(Value::Int(4));
  EXPECT_TRUE(three.Meet(four).empty());
  EXPECT_FALSE(three.Join(four).empty());
}

// ---------------------------------------------------------------------
// Inference.
// ---------------------------------------------------------------------

Program Parse(const std::string& src) {
  Result<Program> p = Parser::Parse(src);
  EXPECT_TRUE(p.ok()) << p.status().message();
  return std::move(p).value();
}

/// Exact seeds of every predicate `db` holds facts for; the closed-world
/// analysis treats the rest as empty, as evaluation over `db` does.
EdbSeeds SeedsOf(const Database& db) {
  EdbSeeds seeds;
  for (const std::string& pred : db.Predicates()) {
    const std::vector<Tuple> facts = db.facts(pred);
    if (facts.empty()) continue;
    std::vector<PosFacts>& positions = seeds[pred].positions;
    positions.assign(facts.front().size(), PosFacts::Bottom());
    for (const Tuple& t : facts) {
      for (size_t i = 0; i < t.size(); ++i) {
        positions[i] = positions[i].Join(PosFacts::FromValue(t.at(i)));
      }
    }
  }
  return seeds;
}

TEST(DataflowTest, InfersTypesAndConstantsFromSeeds) {
  Database db;
  db.Insert("e", Tuple({Value::Int(1), Value::String("a")}));
  db.Insert("e", Tuple({Value::Int(2), Value::String("b")}));
  Program program = Parse("p(X, Y) :- e(X, Y).");

  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  const PredicateFacts& p = df.predicates.at("p");
  ASSERT_EQ(p.positions.size(), 2u);
  EXPECT_TRUE(p.positions[0].types.NumericOnly());
  EXPECT_TRUE(p.positions[1].types.Contains(ValueType::kString));
  EXPECT_FALSE(p.positions[1].types.ContainsNumeric());
  EXPECT_TRUE(p.positions[0].consts.Contains(Value::Int(1)));
  EXPECT_TRUE(p.positions[0].consts.Contains(Value::Int(2)));
  EXPECT_FALSE(p.positions[0].consts.Contains(Value::Int(3)));
  EXPECT_TRUE(p.possibly_nonempty);
}

TEST(DataflowTest, RecursionReachesFixpointWithDomainBound) {
  Database db;
  for (int i = 0; i < 4; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  Program program = Parse(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  const PredicateFacts& tc = df.predicates.at("tc");
  // Recursive predicate over a finite constant domain: the fixpoint
  // keeps each position's const set within the nodes, not ⊤.
  for (const PosFacts& pos : tc.positions) {
    ASSERT_FALSE(pos.consts.is_top());
    EXPECT_LE(pos.consts.size(), 5u);
  }
  EXPECT_TRUE(tc.positions[0].consts.Contains(Value::Int(0)));
  EXPECT_TRUE(tc.positions[1].consts.Contains(Value::Int(4)));
  EXPECT_TRUE(tc.positions[0].types.NumericOnly());
}

TEST(DataflowTest, RecursiveArithmeticWidensToUnbounded) {
  Database db;
  db.Insert("start", Tuple({Value::Int(0)}));
  Program program = Parse(
      "count_up(X) :- start(X).\n"
      "count_up(Y) :- count_up(X), Y = X + 1.");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  const PredicateFacts& c = df.predicates.at("count_up");
  // Widening must terminate the fixpoint; the interval becomes [0, inf).
  EXPECT_TRUE(c.positions[0].range.Contains(1e18));
  EXPECT_FALSE(c.positions[0].range.Contains(-1));
}

TEST(DataflowTest, ComparisonRefinementNarrowsIntervals) {
  Database db;
  for (int i = 0; i < 10; ++i) db.Insert("n", Tuple({Value::Int(i)}));
  Program program = Parse("small(X) :- n(X), X < 3.");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  const PredicateFacts& s = df.predicates.at("small");
  // Closed-bound refinement: [0, 3] over-approximates {0, 1, 2}.
  EXPECT_TRUE(s.positions[0].range.Contains(0));
  EXPECT_FALSE(s.positions[0].range.Contains(4));
}

TEST(DataflowTest, UnknownPredicatesAreTopOpenWorldEmptyClosedWorld) {
  Program program = Parse("p(X) :- mystery(X).");
  DataflowOptions open;  // default: assume_unknown_nonempty = true
  DataflowResult df_open = AnalyzeDataflow(program, EdbSeeds{}, open);
  EXPECT_TRUE(df_open.predicates.at("p").possibly_nonempty);
  EXPECT_TRUE(df_open.RuleIsClean(0));

  DataflowOptions closed;
  closed.assume_unknown_nonempty = false;
  DataflowResult df_closed = AnalyzeDataflow(program, EdbSeeds{}, closed);
  EXPECT_FALSE(df_closed.predicates.at("p").possibly_nonempty);
  EXPECT_TRUE(df_closed.RuleProvablyEmpty(0));
}

// ---------------------------------------------------------------------
// Findings (the vada_lint verdicts).
// ---------------------------------------------------------------------

std::vector<FindingKind> KindsOf(const DataflowResult& df, size_t ri) {
  std::vector<FindingKind> kinds;
  if (ri < df.rule_findings.size()) {
    for (const RuleFinding& f : df.rule_findings[ri]) kinds.push_back(f.kind);
  }
  return kinds;
}

TEST(DataflowFindingsTest, TypeClashOnDisjointJoin) {
  Database db;
  db.Insert("num", Tuple({Value::Int(1)}));
  db.Insert("str", Tuple({Value::String("a")}));
  Program program = Parse("p(X) :- num(X), str(X).");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  ASSERT_EQ(KindsOf(df, 0).size(), 1u);
  EXPECT_EQ(KindsOf(df, 0)[0], FindingKind::kTypeClash);
  EXPECT_TRUE(df.RuleProvablyEmpty(0));
  EXPECT_FALSE(df.predicates.at("p").possibly_nonempty);
}

TEST(DataflowFindingsTest, EmptyRuleOnDisjointConstants) {
  Database db;
  db.Insert("a", Tuple({Value::Int(1)}));
  db.Insert("b", Tuple({Value::Int(2)}));
  Program program = Parse("p(X) :- a(X), b(X).");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  ASSERT_EQ(KindsOf(df, 0).size(), 1u);
  EXPECT_EQ(KindsOf(df, 0)[0], FindingKind::kEmptyRule);
}

TEST(DataflowFindingsTest, ContradictoryComparisons) {
  Database db;
  for (int i = 0; i < 10; ++i) db.Insert("n", Tuple({Value::Int(i)}));
  Program program = Parse("p(X) :- n(X), X = 5, X = 7.");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  std::vector<FindingKind> kinds = KindsOf(df, 0);
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], FindingKind::kContradictoryComparisons);
}

TEST(DataflowFindingsTest, UnsatisfiableConstantGuard) {
  Database db;
  db.Insert("n", Tuple({Value::Int(1)}));
  Program program = Parse("p(X) :- n(X), 3 > 5.");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  std::vector<FindingKind> kinds = KindsOf(df, 0);
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], FindingKind::kUnsatisfiableGuard);
}

TEST(DataflowFindingsTest, NeverComparableTypesAreUnsatisfiable) {
  Database db;
  db.Insert("num", Tuple({Value::Int(1)}));
  db.Insert("str", Tuple({Value::String("a")}));
  // X < Y over int vs string can never succeed (CompareValues nullopt)…
  Program lt = Parse("p(X, Y) :- num(X), str(Y), X < Y.");
  DataflowResult df_lt = AnalyzeDataflow(lt, SeedsOf(db));
  ASSERT_EQ(KindsOf(df_lt, 0).size(), 1u);
  EXPECT_EQ(KindsOf(df_lt, 0)[0], FindingKind::kUnsatisfiableGuard);
  // …but X != Y over incomparable types is TRUE in the engine, so no
  // finding may fire.
  Program ne = Parse("q(X, Y) :- num(X), str(Y), X != Y.");
  DataflowResult df_ne = AnalyzeDataflow(ne, SeedsOf(db));
  EXPECT_TRUE(df_ne.RuleIsClean(0));
  EXPECT_TRUE(df_ne.predicates.at("q").possibly_nonempty);
}

TEST(DataflowFindingsTest, CleanProgramHasNoFindings) {
  Database db;
  for (int i = 0; i < 5; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  Program program = Parse(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
      "far(X, Y) :- tc(X, Y), Y > 3.");
  DataflowResult df = AnalyzeDataflow(program, SeedsOf(db));
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    EXPECT_TRUE(df.RuleIsClean(ri)) << "rule " << ri;
  }
}

/// Soundness harness: any rule the analysis proves empty must derive
/// nothing when actually evaluated (closed world over the same db).
TEST(DataflowFindingsTest, EmptinessProofsAreSoundOnRandomPrograms) {
  for (int seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Database edb = RandomEdb(&rng);
    Result<Program> program = Parser::Parse(RandomProgram(&rng));
    ASSERT_TRUE(program.ok());

    DataflowOptions closed;
    closed.assume_unknown_nonempty = false;
    DataflowResult df =
        AnalyzeDataflow(program.value(), SeedsOf(edb), closed);

    Database db = edb;
    Evaluator eval(program.value(), EvalOptions{});
    ASSERT_TRUE(eval.Prepare().ok());
    ASSERT_TRUE(eval.Run(&db).ok());

    for (const auto& [pred, facts] : df.predicates) {
      if (!facts.possibly_nonempty) {
        EXPECT_TRUE(db.facts(pred).empty())
            << pred << " proven empty but has facts";
      }
    }
  }
}

// ---------------------------------------------------------------------
// Query's goal-directed rewrite.
// ---------------------------------------------------------------------

TEST(OptimizerTest, AtomBoundAssignmentsAreNotFolded) {
  // Z is bound by the atom and checked by the assignment, which coerces:
  // the engine hoists the ready constant assignment before the atom,
  // binding Z = Int(2), and the atom then matches exactly, so only the
  // Int(2) fact survives. Query must agree with the oracle on that.
  Database db;
  db.Insert("e", Tuple({Value::Double(2.0)}));
  db.Insert("e", Tuple({Value::Int(2)}));
  Program program = Parse("p(Z) :- e(Z), Z = 2.\nother(Z) :- e(Z).");
  std::vector<Tuple> answer = ExpectQueryMatchesOracle(program, db, "p");
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer[0].at(0), Value::Int(2));
}

TEST(OptimizerTest, EliminatesUnreachableRules) {
  Database db;
  db.Insert("e", Tuple({Value::Int(1), Value::Int(2)}));
  Program program = Parse(
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- nothing(X, Y).\n"      // kept: dead, but in the cone
      "other(X) :- e(X, Y).\n");         // unreachable from goal p
  GoalRewrite r = RewriteForGoal(program, "p", db);
  EXPECT_EQ(r.report.unreachable_rules, 1u);
  EXPECT_FALSE(r.report.magic_applied);
  ASSERT_TRUE(r.program.has_value());
  ASSERT_EQ(r.program->rules.size(), 2u);
  for (const Rule& rule : r.program->rules) {
    EXPECT_EQ(rule.head.predicate, "p");
  }
  ExpectQueryMatchesOracle(program, db, "p");
}

TEST(OptimizerTest, MagicSetsSpecializeBoundRecursion) {
  Database db;
  for (int i = 0; i < 50; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  Program program = Parse(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
      "q(Y) :- tc(1, Y).");
  GoalRewrite r = RewriteForGoal(program, "q", db);
  EXPECT_TRUE(r.report.magic_applied) << r.report.magic_fallback;
  EXPECT_GT(r.report.magic_rules, 0u);
  EXPECT_GT(r.report.specialized_rules, 0u);

  // The rewritten program is valid, stratifiable, and derives exactly
  // the oracle's goal facts.
  ASSERT_TRUE(r.program.has_value());
  EXPECT_TRUE(r.program->Validate().ok());
  EXPECT_TRUE(Stratify(*r.program).ok());
  std::vector<Tuple> answer = ExpectQueryMatchesOracle(program, db, "q");
  EXPECT_EQ(answer.size(), 49u);  // 2..50 reachable from 1

  // And it does measurably less join work: full tc is O(n^2) pairs,
  // the demanded slice is the single chain from 1.
  EvalStats full_stats, magic_stats;
  Database full_db = db;
  Evaluator full(program, EvalOptions{});
  ASSERT_TRUE(full.Prepare().ok());
  ASSERT_TRUE(full.Run(&full_db, &full_stats).ok());
  Database magic_db = db;
  Evaluator magic(*r.program, EvalOptions{});
  ASSERT_TRUE(magic.Prepare().ok());
  ASSERT_TRUE(magic.Run(&magic_db, &magic_stats).ok());
  EXPECT_LT(magic_stats.facts_derived, full_stats.facts_derived);
}

TEST(OptimizerTest, MagicSetsBridgeMixedEdbIdbPredicates) {
  // tc holds stored facts AND is derived by rules; the specialized copy
  // must still see the stored slice.
  Database db;
  db.Insert("edge", Tuple({Value::Int(1), Value::Int(2)}));
  db.Insert("tc", Tuple({Value::Int(1), Value::Int(9)}));  // stored extra
  Program program = Parse(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
      "q(Y) :- tc(1, Y).");
  EXPECT_TRUE(RewriteForGoal(program, "q", db).report.magic_applied);
  std::vector<Tuple> answer = ExpectQueryMatchesOracle(program, db, "q");
  EXPECT_EQ(answer.size(), 2u);  // 2 (edge) and 9 (stored)
}

TEST(OptimizerTest, NegatedCalleesKeepFullExtension) {
  Database db;
  for (int i = 0; i < 5; ++i) db.Insert("node", Tuple({Value::Int(i)}));
  db.Insert("edge", Tuple({Value::Int(0), Value::Int(1)}));
  db.Insert("src", Tuple({Value::Int(0)}));
  Program program = Parse(
      "reach(X) :- src(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "unreach(X) :- node(X), not reach(X).");
  std::vector<Tuple> answer =
      ExpectQueryMatchesOracle(program, db, "unreach");
  EXPECT_EQ(answer.size(), 3u);  // nodes 2, 3, 4
}

TEST(OptimizerTest, ReportSummaryMentionsEachRewrite) {
  Database db;
  db.Insert("edge", Tuple({Value::Int(1), Value::Int(2)}));
  Program program = Parse(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
      "q(Y) :- tc(1, Y).\n"
      "other(X) :- edge(X, Y).\n");
  std::string summary = RewriteForGoal(program, "q", db).report.Summary();
  EXPECT_NE(summary.find("1 unreachable rule(s)"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("magic: "), std::string::npos) << summary;

  Program right = Parse(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "q(Y) :- tc(1, Y).");
  EXPECT_EQ(RewriteForGoal(right, "q", db).report.Summary(),
            "magic declined: open demand");
  EXPECT_EQ(RewriteReport{}.Summary(), "no rewrites applied");
}

// The selection rule: magic sets only on closed demand.

TEST(OptimizerTest, LeftRecursiveBoundGoalAppliesMagic) {
  // Inline facts make `edge` a fact-only predicate, read like a stored
  // relation; the only recursive demand rule is the identity copy.
  Program program = Parse(
      "edge(1, 2). edge(2, 3). edge(3, 4). edge(5, 6).\n"
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
      "q(Y) :- tc(1, Y).");
  Database db;
  GoalRewrite r = RewriteForGoal(program, "q", db);
  EXPECT_TRUE(r.report.magic_applied) << r.report.magic_fallback;
  ASSERT_TRUE(r.program.has_value());
  bool identity = false;
  for (const Rule& rule : r.program->rules) {
    if (rule.head.predicate.rfind("m__", 0) != 0) continue;
    // Every demand rule is a seed fact or the identity copy.
    if (rule.IsFact()) continue;
    ASSERT_EQ(rule.body.size(), 1u) << rule.ToString();
    EXPECT_EQ(rule.body[0].atom.predicate, rule.head.predicate);
    identity = true;
  }
  EXPECT_TRUE(identity);
  std::vector<Tuple> answer = ExpectQueryMatchesOracle(program, db, "q");
  EXPECT_EQ(answer.size(), 3u);  // 2, 3, 4
}

TEST(OptimizerTest, OpenDemandDeclinesMagic) {
  Database db;
  for (int i = 0; i < 20; ++i) {
    db.Insert("edge", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  const char* programs[] = {
      // Right-recursive tc: demand m(Z) :- m(X), edge(X, Z) walks the
      // whole suffix of the chain.
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "q(Y) :- tc(1, Y).",
      // Same generation: demand climbs through edge(A, X).
      "sg(X, X) :- edge(X, Y).\n"
      "sg(X, Y) :- edge(A, X), sg(A, B), edge(B, Y).\n"
      "q(Y) :- sg(4, Y).",
  };
  for (const char* src : programs) {
    SCOPED_TRACE(src);
    Program program = Parse(src);
    GoalRewrite r = RewriteForGoal(program, "q", db);
    EXPECT_FALSE(r.report.magic_applied);
    EXPECT_EQ(r.report.magic_fallback, "open demand");
    EXPECT_EQ(r.report.magic_rules, 0u);
    // Nothing pruned and magic declined: the input runs as is.
    EXPECT_FALSE(r.program.has_value());
    ExpectQueryMatchesOracle(program, db, "q");
  }
}

TEST(OptimizerTest, DependencyShapedProgramIsReturnedUnrewritten) {
  Database db;
  db.Insert("sys_relation_nonempty", Tuple({Value::String("mapping")}));
  Program program = Parse(
      "ready() :- sys_relation_nonempty(\"cfd\"), "
      "sys_relation_nonempty(\"mapping\").\n"
      "ready() :- sys_relation_nonempty(\"mapping\").");
  GoalRewrite r = RewriteForGoal(program, "ready", db);
  EXPECT_FALSE(r.program.has_value());
  EXPECT_EQ(r.report.Summary(), "no rewrites applied");
  std::vector<Tuple> answer = ExpectQueryMatchesOracle(program, db, "ready");
  EXPECT_EQ(answer.size(), 1u);
}

TEST(OptimizerTest, UnsafeRuleOutsideTheConeStillFailsQuery) {
  Database db;
  db.Insert("e", Tuple({Value::Int(1)}));
  // The parser rejects unsafe rules, so make one by editing the AST:
  // dropping e(Y) leaves head variable Y unbound.
  Program program = Parse("p(X) :- e(X).\nbad(X, Y) :- e(X), e(Y).");
  program.rules[1].body.pop_back();
  GoalRewrite r = RewriteForGoal(program, "p", db);
  EXPECT_FALSE(r.program.has_value());
  EXPECT_FALSE(Query(program, &db, "p").ok());
}

// ---------------------------------------------------------------------
// Property test: rewritten programs always re-validate and
// re-stratify, across 500 random programs x all goals.
// ---------------------------------------------------------------------

class OptimizerValidityProperty : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Shards, OptimizerValidityProperty,
                         ::testing::Range(0, 25));

TEST_P(OptimizerValidityProperty, OutputRevalidatesAcrossRandomPrograms) {
  constexpr int kSeedsPerShard = 20;
  analysis::ProgramAnalyzer analyzer;
  for (int s = 0; s < kSeedsPerShard; ++s) {
    int seed = GetParam() * kSeedsPerShard + s;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Database edb = RandomEdb(&rng);
    Result<Program> program = Parser::Parse(RandomProgram(&rng));
    ASSERT_TRUE(program.ok());

    for (const std::string& goal : RandomProgramGoals()) {
      SCOPED_TRACE("goal=" + goal);
      GoalRewrite r = RewriteForGoal(program.value(), goal, edb);
      if (!r.program.has_value()) continue;
      // Never emits an unsafe or unstratifiable program.
      EXPECT_TRUE(r.program->Validate().ok());
      EXPECT_TRUE(Stratify(*r.program).ok());
      // The full analyzer agrees: no safety/stratification errors.
      analysis::AnalysisReport report = analyzer.Analyze(*r.program);
      for (const auto& d : report.diagnostics) {
        if (d.severity != analysis::Severity::kError) continue;
        EXPECT_TRUE(d.check_id.rfind("safety/", 0) != 0 &&
                    d.check_id.rfind("stratification/", 0) != 0)
            << d.check_id << ": " << d.message;
      }
    }
  }
}

}  // namespace
}  // namespace vada::datalog::dataflow
