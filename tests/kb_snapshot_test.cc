// KnowledgeBase::Snapshot: the one bridge from the knowledge base to the
// reasoner. A snapshot is shared while its relation is unchanged and is
// dropped by every change (mutation, drop, guard rollback), so a reader
// can never see rows the KB no longer holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kb/database.h"
#include "kb/knowledge_base.h"
#include "kb/write_guard.h"
#include "transducer/network.h"

namespace vada::datalog {
namespace {

KnowledgeBase MakeKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  EXPECT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  EXPECT_TRUE(kb.Assert("r", {Value::Int(2)}).ok());
  return kb;
}

TEST(KbSnapshotTest, UnchangedRelationReturnsTheSameSnapshot) {
  KnowledgeBase kb = MakeKb();
  std::shared_ptr<const Database> s1 = kb.Snapshot("r");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->FactCount("r"), 2u);
  EXPECT_EQ(kb.Snapshot("r").get(), s1.get());  // the very same object

  // An insert of a row the relation already holds changes nothing.
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  EXPECT_EQ(kb.Snapshot("r").get(), s1.get());
}

TEST(KbSnapshotTest, MutationRebuildsSnapshot) {
  KnowledgeBase kb = MakeKb();
  std::shared_ptr<const Database> before = kb.Snapshot("r");
  ASSERT_TRUE(kb.Assert("r", {Value::Int(3)}).ok());

  std::shared_ptr<const Database> after = kb.Snapshot("r");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(before->FactCount("r"), 2u);  // a held snapshot is immutable
  EXPECT_EQ(after->FactCount("r"), 3u);
}

TEST(KbSnapshotTest, MissingRelationReturnsNull) {
  KnowledgeBase kb = MakeKb();
  EXPECT_EQ(kb.Snapshot("absent"), nullptr);
  EXPECT_EQ(kb.Snapshot("absent"), nullptr);
}

TEST(KbSnapshotTest, RollbackRestoresThePreWriteRows) {
  KnowledgeBase kb = MakeKb();
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("r", {Value::Int(99)}).ok());
    EXPECT_EQ(kb.Snapshot("r")->FactCount("r"), 3u);  // read inside
    guard.Rollback();
  }
  std::shared_ptr<const Database> after = kb.Snapshot("r");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->FactCount("r"), 2u);
  EXPECT_FALSE(after->Contains("r", Tuple({Value::Int(99)})));
}

TEST(KbSnapshotTest, RollbackThenRewriteReturnsTheRewrittenRows) {
  // Rollback rewinds the global version counter, so the rewrite below
  // lands on the version the rolled-back write had. A snapshot keyed on
  // versions would return {1, 99} here; the KB holds {1, 7}.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  ASSERT_TRUE(kb.Assert("r", {Value::Int(1)}).ok());
  uint64_t guarded_version = 0;
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("r", {Value::Int(99)}).ok());
    guarded_version = kb.relation_version("r");
    ASSERT_EQ(kb.Snapshot("r")->FactCount("r"), 2u);
    guard.Rollback();
  }
  ASSERT_TRUE(kb.Assert("r", {Value::Int(7)}).ok());
  EXPECT_EQ(kb.relation_version("r"), guarded_version);

  std::shared_ptr<const Database> snapshot = kb.Snapshot("r");
  ASSERT_NE(snapshot, nullptr);
  const std::vector<Tuple> rewritten = {Tuple({Value::Int(1)}),
                                        Tuple({Value::Int(7)})};
  EXPECT_EQ(snapshot->facts("r"), rewritten);
}

TEST(KbSnapshotTest, CommittedGuardKeepsNewRowsVisible) {
  KnowledgeBase kb = MakeKb();
  std::shared_ptr<const Database> before = kb.Snapshot("r");
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("r", {Value::Int(42)}).ok());
    guard.Commit();
  }
  std::shared_ptr<const Database> after = kb.Snapshot("r");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->FactCount("r"), 3u);
}

TEST(KbSnapshotTest, DropAndRecreateRebuildsSnapshot) {
  KnowledgeBase kb = MakeKb();
  std::shared_ptr<const Database> old_snapshot = kb.Snapshot("r");
  ASSERT_EQ(old_snapshot->FactCount("r"), 2u);

  ASSERT_TRUE(kb.DropRelation("r").ok());
  EXPECT_EQ(kb.Snapshot("r"), nullptr);
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("r", {"a"})).ok());
  ASSERT_TRUE(kb.Assert("r", {Value::Int(7)}).ok());

  std::shared_ptr<const Database> fresh = kb.Snapshot("r");
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), old_snapshot.get());
  EXPECT_EQ(fresh->FactCount("r"), 1u);
  EXPECT_TRUE(fresh->Contains("r", Tuple({Value::Int(7)})));
}

TEST(KbSnapshotTest, CatalogRoleChangeReachesSnapshotViaControlFacts) {
  KnowledgeBase kb = MakeKb();
  kb.catalog().SetRole("r", RelationRole::kSource);
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());

  std::shared_ptr<const Database> roles1 = kb.Snapshot("sys_relation_role");
  ASSERT_NE(roles1, nullptr);
  ASSERT_TRUE(roles1->Contains(
      "sys_relation_role",
      Tuple({Value::String("r"), Value::String("source")})));

  // A role change alone touches only the catalog; SyncControlFacts is
  // what re-materialises sys_relation_role, and that write drops the
  // snapshot dependency checks read.
  kb.catalog().SetRole("r", RelationRole::kReference);
  ASSERT_TRUE(NetworkTransducer::SyncControlFacts(&kb).ok());

  std::shared_ptr<const Database> roles2 = kb.Snapshot("sys_relation_role");
  ASSERT_NE(roles2, nullptr);
  EXPECT_NE(roles1.get(), roles2.get());
  EXPECT_TRUE(roles2->Contains(
      "sys_relation_role",
      Tuple({Value::String("r"), Value::String("reference")})));
}

TEST(KbSnapshotTest, IndexBytesSumTheLiveSnapshotsIndexes) {
  KnowledgeBase kb = MakeKb();
  EXPECT_EQ(kb.SnapshotIndexBytes(), 0u);
  std::shared_ptr<const Database> snapshot = kb.Snapshot("r");
  ASSERT_NE(snapshot->EnsureBoundIndex("r", {0}), nullptr);
  EXPECT_EQ(kb.SnapshotIndexBytes(), snapshot->IndexBytes());
  EXPECT_GT(kb.SnapshotIndexBytes(), 0u);
  // A change drops the snapshot, and its index with it.
  ASSERT_TRUE(kb.Assert("r", {Value::Int(3)}).ok());
  EXPECT_EQ(kb.SnapshotIndexBytes(), 0u);
}

}  // namespace
}  // namespace vada::datalog
