// The orchestrator's read-set gate (DESIGN.md §5e): while a step runs,
// the knowledge base logs what the step reads (KnowledgeBase::ReadLog);
// the orchestrator re-runs a transducer only when something it read has
// moved since. Covers the log itself, the catalog's per-role membership
// counters, the gate's recording rules and
// WranglingSession::ExplainEligibility.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kb/write_guard.h"
#include "transducer/network.h"
#include "transducer/transducer.h"
#include "wrangler/session.h"

namespace vada {
namespace {

using ReadLog = KnowledgeBase::ReadLog;
using Reason = NetworkTransducer::Eligibility::Reason;

KnowledgeBase SeedKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  EXPECT_TRUE(kb.Assert("a", {Value::Int(1)}).ok());
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("z", {"x"})).ok());
  return kb;
}

Relation OneRow(const std::string& name, int64_t v) {
  Relation rel(Schema::Untyped(name, {"x"}));
  EXPECT_TRUE(rel.InsertUnchecked(Tuple({Value::Int(v)})).ok());
  return rel;
}

TEST(ReadLogTest, EachReadAccessorLogsTheRelation) {
  KnowledgeBase kb = SeedKb();
  const std::vector<std::pair<std::string, std::function<void()>>> reads = {
      {"FindRelation", [&] { (void)kb.FindRelation("a"); }},
      {"GetRelation", [&] { (void)kb.GetRelation("a"); }},
      {"Snapshot", [&] { (void)kb.Snapshot("a"); }},
      {"HasRelation", [&] { (void)kb.HasRelation("a"); }},
      {"relation_version", [&] { (void)kb.relation_version("a"); }},
      {"NoteRead", [&] { kb.NoteRead("a"); }},
      // A no-op replace still compared against the stored rows.
      {"ReplaceRelationIfChanged",
       [&] { EXPECT_TRUE(kb.ReplaceRelationIfChanged(OneRow("a", 1)).ok()); }},
  };
  for (const auto& [accessor, read] : reads) {
    ReadLog log;
    kb.SetReadLog(&log);
    read();
    kb.SetReadLog(nullptr);
    EXPECT_EQ(log.relations, std::set<std::string>{"a"}) << accessor;
    EXPECT_TRUE(log.overwritten.empty()) << accessor;
    EXPECT_FALSE(log.whole_kb) << accessor;
  }
  // Absent relations are reads too (their version, 0, is what moves when
  // they appear).
  ReadLog log;
  kb.SetReadLog(&log);
  EXPECT_EQ(kb.FindRelation("missing"), nullptr);
  kb.SetReadLog(nullptr);
  EXPECT_EQ(log.relations, std::set<std::string>{"missing"});
  // Detached: nothing is recorded.
  (void)kb.FindRelation("z");
  EXPECT_EQ(log.relations.count("z"), 0u);
}

TEST(ReadLogTest, PureWritesLogNoReadButTheirPreStepVersion) {
  KnowledgeBase kb = SeedKb();
  const uint64_t a0 = kb.relation_version("a");
  const uint64_t z0 = kb.relation_version("z");
  ReadLog log;
  kb.SetReadLog(&log);
  ASSERT_TRUE(kb.Insert("a", Tuple({Value::Int(2)})).ok());
  ASSERT_TRUE(kb.Assert("a", {Value::Int(3)}).ok());
  ASSERT_TRUE(kb.Retract("a", Tuple({Value::Int(1)})).ok());
  ASSERT_TRUE(kb.ReplaceRelation(OneRow("z", 7)).ok());
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("fresh", {"x"})).ok());
  ASSERT_TRUE(kb.ClearRelation("z").ok());
  ASSERT_TRUE(kb.DropRelation("fresh").ok());
  kb.SetReadLog(nullptr);
  EXPECT_TRUE(log.relations.empty());
  EXPECT_FALSE(log.whole_kb);
  // Each relation keeps the version it had before its first write.
  EXPECT_EQ(log.overwritten,
            (std::map<std::string, uint64_t>{{"a", a0}, {"fresh", 0}, {"z", z0}}));
}

TEST(ReadLogTest, ReplaceIfChangedIsAReadNotAnOverwrite) {
  KnowledgeBase kb = SeedKb();
  ReadLog log;
  kb.SetReadLog(&log);
  bool changed = false;
  ASSERT_TRUE(kb.ReplaceRelationIfChanged(OneRow("a", 9), &changed).ok());
  ASSERT_TRUE(kb.ReplaceRelationIfChanged(OneRow("new", 1), &changed).ok());
  EXPECT_TRUE(changed);
  kb.SetReadLog(nullptr);
  EXPECT_EQ(log.relations, (std::set<std::string>{"a", "new"}));
  EXPECT_TRUE(log.overwritten.empty());

  // An earlier plain write keeps the relation's pre-step version.
  const uint64_t z0 = kb.relation_version("z");
  ReadLog mixed;
  kb.SetReadLog(&mixed);
  ASSERT_TRUE(kb.Assert("z", {Value::Int(1)}).ok());
  ASSERT_TRUE(kb.ReplaceRelationIfChanged(OneRow("z", 2)).ok());
  kb.SetReadLog(nullptr);
  EXPECT_EQ(mixed.overwritten, (std::map<std::string, uint64_t>{{"z", z0}}));
}

TEST(ReadLogTest, RelationNamesReadsTheWholeKb) {
  KnowledgeBase kb = SeedKb();
  ReadLog log;
  kb.SetReadLog(&log);
  EXPECT_EQ(kb.RelationNames().size(), 2u);
  kb.SetReadLog(nullptr);
  EXPECT_TRUE(log.whole_kb);
}

TEST(ReadLogTest, CatalogReadsLogRoles) {
  KnowledgeBase kb = SeedKb();
  ReadLog log;
  kb.SetReadLog(&log);
  (void)kb.catalog().RelationsWithRole(RelationRole::kSource);
  EXPECT_EQ(log.roles, std::set<RelationRole>{RelationRole::kSource});
  // GetRole depends on every role: any of them may gain the relation.
  (void)kb.catalog().GetRole("a");
  kb.SetReadLog(nullptr);
  EXPECT_EQ(log.roles.size(), kRelationRoleCount);
}

TEST(CatalogRoleVersionTest, EffectiveChangesMoveTheirRolesOnly) {
  Catalog catalog;
  auto versions = [&catalog] {
    std::vector<uint64_t> out;
    for (size_t r = 0; r < kRelationRoleCount; ++r) {
      out.push_back(catalog.role_version(static_cast<RelationRole>(r)));
    }
    return out;
  };
  const auto source = static_cast<size_t>(RelationRole::kSource);
  const auto target = static_cast<size_t>(RelationRole::kTarget);

  std::vector<uint64_t> v0 = versions();
  catalog.SetRole("a", RelationRole::kSource);  // effective: joins source
  std::vector<uint64_t> v1 = versions();
  for (size_t r = 0; r < kRelationRoleCount; ++r) {
    EXPECT_EQ(v1[r] != v0[r], r == source) << r;
  }

  catalog.SetRole("a", RelationRole::kSource);  // no-op
  EXPECT_EQ(versions(), v1);

  catalog.SetRole("a", RelationRole::kTarget);  // leaves source, joins target
  std::vector<uint64_t> v2 = versions();
  for (size_t r = 0; r < kRelationRoleCount; ++r) {
    EXPECT_EQ(v2[r] != v1[r], r == source || r == target) << r;
  }

  catalog.Remove("absent");  // no-op
  EXPECT_EQ(versions(), v2);
  catalog.Remove("a");  // effective: leaves target
  std::vector<uint64_t> v3 = versions();
  for (size_t r = 0; r < kRelationRoleCount; ++r) {
    EXPECT_EQ(v3[r] != v2[r], r == target) << r;
  }

  // Restore may change any membership, so it moves every counter, even
  // when it restores the current map.
  catalog.Restore(catalog.Snapshot());
  std::vector<uint64_t> v4 = versions();
  for (size_t r = 0; r < kRelationRoleCount; ++r) EXPECT_NE(v4[r], v3[r]);
}

TEST(CatalogRoleVersionTest, WriteGuardRollbackMovesRoleVersions) {
  KnowledgeBase kb = SeedKb();
  const uint64_t before = kb.catalog().role_version(RelationRole::kMetadata);
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("a", {Value::Int(5)}).ok());
  }  // rolled back
  EXPECT_NE(kb.catalog().role_version(RelationRole::kMetadata), before);
}

/// Copies `from` into `to` with ReplaceRelationIfChanged (idempotent);
/// counts its executions in `*runs`.
std::unique_ptr<Transducer> Copier(const std::string& name,
                                   const std::string& from,
                                   const std::string& to, int* runs) {
  return std::make_unique<FunctionTransducer>(
      name, "act", "ready() :- sys_relation_nonempty(\"" + from + "\").",
      [from, to, runs](KnowledgeBase* kb) -> Status {
        ++*runs;
        const Relation* src = kb->FindRelation(from);
        Relation out(Schema(to, src->schema().attributes()));
        for (const Tuple& row : src->rows()) {
          VADA_RETURN_IF_ERROR(out.InsertUnchecked(row));
        }
        return kb->ReplaceRelationIfChanged(out);
      });
}

class GateTest : public ::testing::Test {
 protected:
  GateTest()
      : kb_(SeedKb()),
        orchestrator_(&registry_, std::make_unique<FifoPolicy>()) {}

  OrchestrationStats Run() {
    OrchestrationStats stats;
    Status s = orchestrator_.Run(&kb_, &stats);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return stats;
  }

  KnowledgeBase kb_;
  TransducerRegistry registry_;
  NetworkTransducer orchestrator_;
};

TEST_F(GateTest, UnrelatedWriteDoesNotReEnableATransducer) {
  int runs = 0;
  ASSERT_TRUE(registry_.Add(Copier("copy", "a", "b", &runs)).ok());
  EXPECT_EQ(Run().steps, 1u);
  EXPECT_EQ(runs, 1);

  // z is not in its read set (a, b): the KB moved, the gate stays shut.
  ASSERT_TRUE(kb_.Assert("z", {Value::Int(1)}).ok());
  OrchestrationStats stats = Run();
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_EQ(stats.read_set_skips, 1u);
  EXPECT_EQ(runs, 1);

  // A write to what it read re-enables it.
  ASSERT_TRUE(kb_.Assert("a", {Value::Int(2)}).ok());
  EXPECT_EQ(Run().steps, 1u);
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(kb_.FindRelation("b")->Contains(Tuple({Value::Int(2)})));

  // So does a write by someone else to what it wrote.
  ASSERT_TRUE(kb_.ReplaceRelation(OneRow("b", 42)).ok());
  EXPECT_EQ(Run().steps, 1u);
  EXPECT_EQ(runs, 3);
  EXPECT_FALSE(kb_.FindRelation("b")->Contains(Tuple({Value::Int(42)})));
}

TEST_F(GateTest, InsertWriterRunsOnceMoreReplaceWriterDoesNot) {
  int inserts = 0;
  ASSERT_TRUE(registry_
                  .Add(std::make_unique<FunctionTransducer>(
                      "inserter", "act",
                      "ready() :- sys_relation_nonempty(\"a\").",
                      [&inserts](KnowledgeBase* kb) {
                        ++inserts;
                        return kb->Assert("a", {Value::Int(100)});
                      }))
                  .ok());
  int replaces = 0;
  ASSERT_TRUE(registry_.Add(Copier("replacer", "z", "w", &replaces)).ok());
  ASSERT_TRUE(kb_.Assert("z", {Value::Int(1)}).ok());

  OrchestrationStats stats = Run();
  // The inserter's own write is new information: a second, no-op run.
  EXPECT_EQ(inserts, 2);
  // The replacer's write is recorded at its post-step version: one run.
  EXPECT_EQ(replaces, 1);
  EXPECT_EQ(stats.steps, 3u);
  EXPECT_EQ(stats.effective_steps, 2u);
}

TEST_F(GateTest, RelationNamesFallsBackToTheGlobalGate) {
  int runs = 0;
  ASSERT_TRUE(registry_
                  .Add(std::make_unique<FunctionTransducer>(
                      "lister", "act",
                      "ready() :- sys_relation_nonempty(\"a\").",
                      [&runs](KnowledgeBase* kb) {
                        ++runs;
                        (void)kb->RelationNames();
                        return Status::OK();
                      }))
                  .ok());
  EXPECT_EQ(Run().steps, 1u);
  // Any KB change may matter to a step that listed every relation.
  ASSERT_TRUE(kb_.Assert("z", {Value::Int(1)}).ok());
  OrchestrationStats stats = Run();
  EXPECT_EQ(stats.steps, 1u);
  EXPECT_EQ(stats.read_set_skips, 0u);
  EXPECT_EQ(runs, 2);
  // ...and an unchanged KB still gates it out.
  EXPECT_EQ(Run().steps, 0u);
}

TEST_F(GateTest, RoleReaderRunsAgainWhenMembershipChanges) {
  int runs = 0;
  ASSERT_TRUE(registry_
                  .Add(std::make_unique<FunctionTransducer>(
                      "sources", "act",
                      "ready() :- sys_relation_nonempty(\"a\").",
                      [&runs](KnowledgeBase* kb) {
                        ++runs;
                        (void)kb->catalog().RelationsWithRole(
                            RelationRole::kSource);
                        return Status::OK();
                      }))
                  .ok());
  EXPECT_EQ(Run().steps, 1u);
  kb_.catalog().SetRole("z", RelationRole::kMetadata);  // another role
  ASSERT_TRUE(kb_.Assert("z", {Value::Int(1)}).ok());
  EXPECT_EQ(Run().steps, 0u);
  kb_.catalog().SetRole("z", RelationRole::kSource);
  ASSERT_TRUE(kb_.Assert("z", {Value::Int(2)}).ok());
  EXPECT_EQ(Run().steps, 1u);
  EXPECT_EQ(runs, 2);
}

// --- WranglingSession::ExplainEligibility: one test per reason. ---

Schema Target() { return Schema::Untyped("target", {"street", "price"}); }

Relation Source(const std::string& name, int rows) {
  Relation rel(Schema::Untyped(name, {"street", "price"}));
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(rel.InsertUnchecked(Tuple({Value::String("s" + std::to_string(i)),
                                           Value::Int(100 + i)}))
                    .ok());
  }
  return rel;
}

TEST(ExplainEligibilityTest, CandidateBeforeItsFirstRun) {
  WranglingSession session;
  ASSERT_TRUE(session.SetTargetSchema(Target()).ok());
  ASSERT_TRUE(session.AddSource(Source("listing", 3)).ok());
  Result<NetworkTransducer::Eligibility> e =
      session.ExplainEligibility("schema_matching");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value().reason, Reason::kCandidate);
  EXPECT_EQ(session.ExplainEligibility("no_such").status().code(),
            StatusCode::kNotFound);
}

TEST(ExplainEligibilityTest, InputsUnchangedNamesItsReadsAndTheirVersions) {
  WranglingSession session;
  ASSERT_TRUE(session.SetTargetSchema(Target()).ok());
  ASSERT_TRUE(session.AddSource(Source("listing", 3)).ok());
  ASSERT_TRUE(session.Run().ok());
  Result<NetworkTransducer::Eligibility> e =
      session.ExplainEligibility("schema_matching");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value().reason, Reason::kInputsUnchanged);
  const KnowledgeBase& kb = session.kb();
  for (const char* read : {"target", "listing", "match_schema"}) {
    ASSERT_EQ(e.value().reads.count(read), 1u) << read;
    EXPECT_EQ(e.value().reads.at(read), kb.relation_version(read)) << read;
  }

  // A new source moves the role it lists: a candidate again.
  ASSERT_TRUE(session.AddSource(Source("other", 2)).ok());
  e = session.ExplainEligibility("schema_matching");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().reason, Reason::kCandidate);
}

TEST(ExplainEligibilityTest, DependencyNotReadyWithoutDataContext) {
  WranglingSession session;
  ASSERT_TRUE(session.SetTargetSchema(Target()).ok());
  ASSERT_TRUE(session.AddSource(Source("listing", 3)).ok());
  ASSERT_TRUE(session.Run().ok());
  Result<NetworkTransducer::Eligibility> e =
      session.ExplainEligibility("instance_matching");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value().reason, Reason::kDependencyNotReady)
     ;
}

TEST(ExplainEligibilityTest, QuarantinedAfterRepeatedFailures) {
  WranglingSession session;
  ASSERT_TRUE(session.SetTargetSchema(Target()).ok());
  ASSERT_TRUE(session.AddSource(Source("listing", 3)).ok());
  ASSERT_TRUE(session
                  .AddTransducer(std::make_unique<FunctionTransducer>(
                      "broken", "act",
                      "ready() :- sys_relation_nonempty(\"listing\").",
                      [](KnowledgeBase*) { return Status::Internal("boom"); }))
                  .ok());
  ASSERT_TRUE(session.Run().ok());
  ASSERT_EQ(session.orchestrator().QuarantinedTransducers(),
            std::vector<std::string>{"broken"});
  Result<NetworkTransducer::Eligibility> e =
      session.ExplainEligibility("broken");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value().reason, Reason::kQuarantined);
}

}  // namespace
}  // namespace vada
