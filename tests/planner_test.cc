// Unit tests for the join planner (PlanBodyOrder) and the composite
// index machinery it drives: ordering edge cases — self-joins,
// all-constant atoms, cross products — and index invalidation across
// Insert, copy-on-write detach and WriteGuard rollback (DESIGN.md §5f).
#include "datalog/planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/snapshot_cache.h"
#include "kb/knowledge_base.h"
#include "kb/write_guard.h"

namespace vada::datalog {
namespace {

Rule ParseRule(const std::string& text) {
  Result<Program> program = Parser::Parse(text);
  EXPECT_TRUE(program.ok()) << program.status().message();
  EXPECT_EQ(program.value().rules.size(), 1u);
  return program.value().rules[0];
}

Database ChainDb(const std::string& predicate, int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert(predicate, Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  return db;
}

// Composite index buckets are keyed on symbol ids (DESIGN.md §5j);
// interning here resolves the same canonical ids the index was built on.
std::vector<SymbolId> IdKey(std::initializer_list<Value> values) {
  std::vector<SymbolId> key;
  for (const Value& v : values) key.push_back(SymbolTable::Global().Intern(v));
  return key;
}

// --------------------------------------------------------------------------
// PlanBodyOrder.
// --------------------------------------------------------------------------

TEST(PlanBodyOrderTest, SmallerRelationGoesFirst) {
  Rule rule = ParseRule("h(X, Z) :- big(X, Y), small(Y, Z).");
  Database db = ChainDb("big", 100);
  for (int i = 0; i < 2; ++i) {
    db.Insert("small", Tuple({Value::Int(i), Value::Int(i)}));
  }
  EXPECT_EQ(PlanBodyOrder(rule, &db),
            (std::vector<size_t>{1, 0}));
}

TEST(PlanBodyOrderTest, AllConstantAtomCostsZeroAndGoesFirst) {
  Rule rule = ParseRule("h(X) :- e(X, Y), e(3, 4).");
  Database db = ChainDb("e", 50);
  // The fully bound atom is a containment check: cost 0, placed first.
  EXPECT_EQ(PlanBodyOrder(rule, &db),
            (std::vector<size_t>{1, 0}));
}

TEST(PlanBodyOrderTest, EmptyRelationGoesFirst) {
  Rule rule = ParseRule("h(X, Z) :- e(X, Y), void(Y, Z).");
  Database db = ChainDb("e", 10);  // `void` has no facts at all
  EXPECT_EQ(PlanBodyOrder(rule, &db),
            (std::vector<size_t>{1, 0}));
}

TEST(PlanBodyOrderTest, SelfJoinTiesFallBackToDeclaredOrder) {
  Rule rule = ParseRule("h(X, Z) :- e(X, Y), e(Y, Z).");
  Database db = ChainDb("e", 20);
  // Equal cardinality: declared order breaks the tie; the second
  // occurrence then joins on its bound Y.
  EXPECT_EQ(PlanBodyOrder(rule, &db),
            (std::vector<size_t>{0, 1}));
}

TEST(PlanBodyOrderTest, CrossProductPicksSmallerSideFirst) {
  Rule rule = ParseRule("h(X, Y) :- a(X), b(Y).");
  Database db;
  for (int i = 0; i < 30; ++i) db.Insert("a", Tuple({Value::Int(i)}));
  for (int i = 0; i < 3; ++i) db.Insert("b", Tuple({Value::Int(i)}));
  EXPECT_EQ(PlanBodyOrder(rule, &db),
            (std::vector<size_t>{1, 0}));
}

TEST(PlanBodyOrderTest, FiltersHoistAsEarlyAsTheirVariablesAllow) {
  Rule rule = ParseRule("h(X, Y) :- a(X), b(Y), X > 2, not c(X).");
  Database db;
  for (int i = 0; i < 5; ++i) db.Insert("a", Tuple({Value::Int(i)}));
  for (int i = 0; i < 50; ++i) db.Insert("b", Tuple({Value::Int(i)}));
  db.Insert("c", Tuple({Value::Int(3)}));
  // a(X) binds X; the comparison and negation run before the expensive
  // b(Y) ever enumerates, with or without cardinalities to consult.
  EXPECT_EQ(PlanBodyOrder(rule, &db),
            (std::vector<size_t>{0, 2, 3, 1}));
  EXPECT_EQ(PlanBodyOrder(rule, nullptr),
            (std::vector<size_t>{0, 2, 3, 1}));
}

TEST(PlanBodyOrderTest, NullDatabaseFallsBackToLegacyHeuristic) {
  Rule rule = ParseRule("h(X, Z) :- big(X, Y), small(Y, Z).");
  // No cardinalities to consult: declared order, as before this planner.
  EXPECT_EQ(PlanBodyOrder(rule, nullptr),
            (std::vector<size_t>{0, 1}));
}

// --------------------------------------------------------------------------
// Composite index probing through evaluation (EvalStats visibility).
// --------------------------------------------------------------------------

EvalStats RunOn(Database* db, const std::string& text, EvalOptions options) {
  Result<Program> program = Parser::Parse(text);
  EXPECT_TRUE(program.ok()) << program.status().message();
  Evaluator eval(program.value(), options);
  EXPECT_TRUE(eval.Prepare().ok());
  EvalStats stats;
  EXPECT_TRUE(eval.Run(db, &stats).ok());
  return stats;
}

TEST(PlannerEvalTest, SelfJoinProbesTheCompositeIndex) {
  Database db = ChainDb("e", 64);
  EvalStats stats =
      RunOn(&db, "t(X, Z) :- e(X, Y), e(Y, Z).", EvalOptions());
  EXPECT_EQ(db.FactCount("t"), 63u);
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_GT(stats.index_builds, 0u);
  // The inner occurrence probes instead of scanning 64 facts per outer
  // candidate; only the outer scan remains.
  EXPECT_LE(stats.join_probes, 64u);
}

TEST(PlannerEvalTest, AllConstantAtomIsASingleIndexProbe) {
  Database db = ChainDb("e", 40);
  EvalStats stats = RunOn(&db, "hit(X) :- node(X), e(3, 4).\n"
                               "node(X) :- e(X, Y).",
                          EvalOptions());
  EXPECT_EQ(db.FactCount("hit"), 40u);
  EXPECT_GT(stats.index_probes, 0u);
}

TEST(PlannerEvalTest, CrossProductStillScans) {
  Database db;
  for (int i = 0; i < 8; ++i) db.Insert("a", Tuple({Value::Int(i)}));
  for (int i = 0; i < 8; ++i) db.Insert("b", Tuple({Value::Int(i)}));
  EvalStats stats = RunOn(&db, "c(X, Y) :- a(X), b(Y).", EvalOptions());
  EXPECT_EQ(db.FactCount("c"), 64u);
  // Neither atom has a bound prefix: no index is ever built or probed.
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_EQ(stats.index_builds, 0u);
  EXPECT_EQ(stats.join_probes, 8u + 64u);
}

TEST(PlannerEvalTest, SmallRelationsProbeTheCompositeIndex) {
  // There is no size gate: an 8-fact relation is indexed like any other.
  Database db = ChainDb("e", 8);
  EvalStats stats = RunOn(&db, "t(X, Z) :- e(X, Y), e(Y, Z).", EvalOptions());
  EXPECT_EQ(db.FactCount("t"), 7u);
  EXPECT_GE(stats.index_builds, 1u);
  EXPECT_GT(stats.index_probes, 0u);
  // Only the outer occurrence scans; the inner one probes the index.
  EXPECT_LE(stats.join_probes, 8u);
}

// --------------------------------------------------------------------------
// Index build / invalidation lifecycle.
// --------------------------------------------------------------------------

TEST(BoundIndexTest, BuiltOncePerPositionSetUntilInvalidated) {
  Database db = ChainDb("e", 4);
  size_t built = 0;
  const BoundIndex* first = db.EnsureBoundIndex("e", {0}, &built);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(built, 1u);
  EXPECT_EQ(db.EnsureBoundIndex("e", {0}, &built), first);
  EXPECT_EQ(built, 1u);  // cached, not rebuilt
  // A different position set is its own index.
  EXPECT_NE(db.EnsureBoundIndex("e", {0, 1}, &built), first);
  EXPECT_EQ(built, 2u);

  // Insert drops the predicate's composite indexes; the rebuilt index
  // sees the new fact.
  ASSERT_TRUE(db.Insert("e", Tuple({Value::Int(99), Value::Int(100)})));
  const BoundIndex* rebuilt = db.EnsureBoundIndex("e", {0}, &built);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(built, 3u);
  EXPECT_EQ(rebuilt->buckets.count(IdKey({Value::Int(99)})), 1u);
}

TEST(BoundIndexTest, InvalidPositionsOrUnknownPredicateReturnNull) {
  Database db = ChainDb("e", 4);
  EXPECT_EQ(db.EnsureBoundIndex("e", {}), nullptr);
  EXPECT_EQ(db.EnsureBoundIndex("e", {2}), nullptr);   // arity is 2
  EXPECT_EQ(db.EnsureBoundIndex("nope", {0}), nullptr);
}

TEST(BoundIndexTest, CopyDoesNotShareIndexes) {
  Database db = ChainDb("e", 4);
  size_t built = 0;
  const BoundIndex* original = db.EnsureBoundIndex("e", {0}, &built);
  ASSERT_NE(original, nullptr);
  Database copy = db;
  size_t copy_built = 0;
  const BoundIndex* copied = copy.EnsureBoundIndex("e", {0}, &copy_built);
  ASSERT_NE(copied, nullptr);
  EXPECT_NE(copied, original);  // rebuilt, not aliased
  EXPECT_EQ(copy_built, 1u);
}

TEST(BoundIndexTest, BorrowersShareTheSnapshotsIndexUntilCowDetach) {
  auto snapshot = std::make_shared<Database>(ChainDb("e", 6));

  Database borrower_a;
  borrower_a.AttachShared(snapshot);
  Database borrower_b;
  borrower_b.AttachShared(snapshot);

  size_t built = 0;
  const BoundIndex* via_a = borrower_a.EnsureBoundIndex("e", {0}, &built);
  ASSERT_NE(via_a, nullptr);
  EXPECT_EQ(built, 1u);
  // The second borrower resolves to the very same index object — it was
  // built on the owning snapshot, not per borrower.
  EXPECT_EQ(borrower_b.EnsureBoundIndex("e", {0}, &built), via_a);
  EXPECT_EQ(built, 1u);

  // Writing detaches borrower_a (copy-on-write); its index is now its
  // own, includes the new fact, and the snapshot's index is untouched.
  ASSERT_TRUE(borrower_a.Insert("e", Tuple({Value::Int(50), Value::Int(51)})));
  const BoundIndex* detached = borrower_a.EnsureBoundIndex("e", {0}, &built);
  ASSERT_NE(detached, nullptr);
  EXPECT_NE(detached, via_a);
  EXPECT_EQ(built, 2u);
  EXPECT_EQ(detached->buckets.count(IdKey({Value::Int(50)})), 1u);
  EXPECT_EQ(via_a->buckets.count(IdKey({Value::Int(50)})), 0u);
  EXPECT_EQ(borrower_b.EnsureBoundIndex("e", {0}, &built), via_a);
}

TEST(BoundIndexTest, WriteGuardRollbackYieldsConsistentSnapshotIndexes) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a", "b"})).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(kb.Assert("r", {Value::Int(i), Value::Int(i + 1)}).ok());
  }
  SnapshotCache cache;
  std::shared_ptr<const Database> before = cache.Get(kb, "r");
  ASSERT_NE(before, nullptr);
  size_t built = 0;
  const BoundIndex* index_before = before->EnsureBoundIndex("r", {0}, &built);
  ASSERT_NE(index_before, nullptr);

  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("r", {Value::Int(77), Value::Int(78)}).ok());
    guard.Rollback();
  }

  // Rollback restores the relation's version, so the re-fetched snapshot
  // is the pre-write one, and the index built on it never sees the
  // aborted write.
  std::shared_ptr<const Database> after = cache.Get(kb, "r");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(after->FactCount("r"), 5u);
  const BoundIndex* index_after = after->EnsureBoundIndex("r", {0}, &built);
  ASSERT_NE(index_after, nullptr);
  EXPECT_EQ(index_after->buckets.count(IdKey({Value::Int(77)})), 0u);
  EXPECT_EQ(index_after->buckets.size(), 5u);
}

}  // namespace
}  // namespace vada::datalog
