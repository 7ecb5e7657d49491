// Differential fuzz harness for the join planner (DESIGN.md §5f).
//
// Each case generates a random program + database from a seed and
// evaluates it under every planner configuration. The oracle is the
// full-scan path ({indexes = false}); the indexed default must reproduce
// the oracle's facts row for row (index buckets keep insertion order),
// and a body-literal-permuted copy of the program — which the planner
// orders differently — must derive the same fact sets. Query's
// goal-directed rewrite is checked against the same oracle.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/goal_rewrite.h"
#include "datalog/parser.h"
#include "datalog_random_program.h"

namespace vada::datalog {
namespace {

/// 25 shards x 20 seeds = 500 differential cases.
class JoinPlannerDifferential : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Shards, JoinPlannerDifferential,
                         ::testing::Range(0, 25));

constexpr int kSeedsPerShard = 20;

TEST_P(JoinPlannerDifferential, AllPlannerConfigsAgreeOnRandomPrograms) {
  for (int s = 0; s < kSeedsPerShard; ++s) {
    int seed = GetParam() * kSeedsPerShard + s;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Database edb = RandomEdb(&rng);
    Result<Program> program = Parser::Parse(RandomProgram(&rng));
    ASSERT_TRUE(program.ok()) << program.status().message();

    // Oracle: full scans.
    EvalOptions oracle;
    oracle.planner = PlannerOptions{.indexes = false};
    EvalOutput expected = Evaluate(program.value(), edb, oracle);
    auto expected_sorted = expected.SortedFacts();

    // Default planner: every bound atom probes its composite index.
    EvalOutput indexed = Evaluate(program.value(), edb, EvalOptions());
    EXPECT_EQ(indexed.SortedFacts(), expected_sorted);
    EXPECT_EQ(indexed.stats.facts_derived, expected.stats.facts_derived);
    // `indexes` never permutes rows: buckets keep insertion order, so
    // probing enumerates exactly what a scan would.
    EXPECT_EQ(indexed.facts, expected.facts);

    // Plan-order independence: the same rules with every body shuffled
    // change the planner's tie-breaks (declared order) and so the join
    // order, but never the derived fact sets.
    Program permuted = program.value();
    Rng shuffle_rng(seed + 7919);
    for (Rule& rule : permuted.rules) {
      for (size_t i = rule.body.size(); i > 1; --i) {
        size_t j = static_cast<size_t>(
            shuffle_rng.UniformInt(0, static_cast<int64_t>(i) - 1));
        std::swap(rule.body[i - 1], rule.body[j]);
      }
    }
    for (const EvalOptions& opts : {oracle, EvalOptions()}) {
      EvalOutput out = Evaluate(permuted, edb, opts);
      EXPECT_EQ(out.SortedFacts(), expected_sorted);
      EXPECT_EQ(out.stats.facts_derived, expected.stats.facts_derived);
    }

    // The naive-fixpoint oracle agrees on the fact set too.
    EvalOptions naive = oracle;
    naive.semi_naive = false;
    EXPECT_EQ(Evaluate(program.value(), edb, naive).SortedFacts(),
              expected_sorted);
  }
}

/// Query differential: Query evaluates only the goal's cone, with magic
/// sets on closed demand, yet its answer must stay bit-identical to the
/// full-scan oracle ({indexes = false}) evaluating the unrewritten
/// program, for every derived predicate of every random program.
/// 25 shards x 20 seeds = 500 programs x 9 goals.
class OptimizerDifferential : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Shards, OptimizerDifferential,
                         ::testing::Range(0, 25));

TEST_P(OptimizerDifferential, GoalVisibleOutputIsBitIdentical) {
  for (int s = 0; s < kSeedsPerShard; ++s) {
    int seed = GetParam() * kSeedsPerShard + s;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Database edb = RandomEdb(&rng);
    Result<Program> program = Parser::Parse(RandomProgram(&rng));
    ASSERT_TRUE(program.ok()) << program.status().message();

    for (const std::string& goal : RandomProgramGoals()) {
      ExpectQueryMatchesOracle(program.value(), edb, goal);
    }
  }
}

/// Closed demand never arises in the random corpus, so this shard pins
/// the shapes where Query does apply magic sets: left-recursive
/// transitive closure bound at every node, over the random edges and
/// over a grid, with stored facts in the recursive predicate for the
/// EDB bridge. Each case must apply magic and match the oracle.
/// 5 shards x 20 seeds.
class ClosedDemandDifferential : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Shards, ClosedDemandDifferential,
                         ::testing::Range(0, 5));

TEST_P(ClosedDemandDifferential, MagicAppliesAndMatchesTheOracle) {
  for (int s = 0; s < kSeedsPerShard; ++s) {
    int seed = GetParam() * kSeedsPerShard + s;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Database random_edb = RandomEdb(&rng);
    // Grid variant: right and down edges over a side x side grid.
    const int side = static_cast<int>(rng.UniformInt(2, 6));
    Database grid_edb;
    for (int r = 0; r < side; ++r) {
      for (int c = 0; c < side; ++c) {
        const int64_t id = r * side + c;
        if (c + 1 < side) {
          grid_edb.Insert("e0", Tuple({Value::Int(id), Value::Int(id + 1)}));
        }
        if (r + 1 < side) {
          grid_edb.Insert("e1",
                          Tuple({Value::Int(id), Value::Int(id + side)}));
        }
      }
    }
    // Stored tc facts: the adorned copies must still see them.
    if (rng.Bernoulli(0.5)) {
      for (Database* db : {&random_edb, &grid_edb}) {
        db->Insert("tc", Tuple({Value::Int(rng.UniformInt(0, 5)),
                                Value::Int(rng.UniformInt(0, 30))}));
      }
    }

    for (const Database* edb : {&random_edb, &grid_edb}) {
      const int64_t max_node = edb == &grid_edb ? side * side : 12;
      for (int64_t c = 0; c < max_node; ++c) {
        SCOPED_TRACE("constant=" + std::to_string(c));
        Result<Program> program = Parser::Parse(
            "tc(X, Y) :- e0(X, Y).\n"
            "tc(X, Y) :- tc(X, Z), e0(Z, Y).\n"
            "tc(X, Y) :- tc(X, Z), e1(Z, Y).\n"
            "q(Y) :- tc(" + std::to_string(c) + ", Y).\n"
            "fan(X, count<Y>) :- tc(X, Y).\n");
        ASSERT_TRUE(program.ok()) << program.status().message();
        GoalRewrite rewrite = RewriteForGoal(program.value(), "q", *edb);
        EXPECT_TRUE(rewrite.report.magic_applied)
            << rewrite.report.Summary();
        ExpectQueryMatchesOracle(program.value(), *edb, "q");
      }
    }
  }
}

/// Indexed evaluation must replace scan work, not duplicate it: on a
/// wide join, total candidate work drops and the counters attribute it
/// to the right strategy.
TEST(JoinPlannerDifferential, IndexedRunDoesLessJoinWork) {
  Rng rng(7);
  Database edb;
  for (int i = 0; i < 400; ++i) {
    edb.Insert("big", Tuple({Value::Int(rng.UniformInt(0, 40)),
                             Value::Int(rng.UniformInt(0, 40))}));
  }
  Result<Program> program =
      Parser::Parse("j(X, Z) :- big(X, Y), big(Y, Z).");
  ASSERT_TRUE(program.ok());

  EvalOptions oracle;
  oracle.planner = PlannerOptions{.indexes = false};
  EvalOutput scan = Evaluate(program.value(), edb, oracle);
  EXPECT_EQ(scan.stats.index_probes, 0u);
  EXPECT_EQ(scan.stats.index_builds, 0u);
  EXPECT_GT(scan.stats.join_probes, 0u);

  EvalOutput indexed = Evaluate(program.value(), edb, EvalOptions());
  EXPECT_EQ(indexed.SortedFacts(), scan.SortedFacts());
  EXPECT_GT(indexed.stats.index_probes, 0u);
  EXPECT_GT(indexed.stats.index_builds, 0u);
  size_t indexed_work = indexed.stats.join_probes +
                        indexed.stats.index_probes +
                        indexed.stats.index_candidates;
  EXPECT_LT(indexed_work, scan.stats.join_probes);
}

}  // namespace
}  // namespace vada::datalog
