// The orchestrator's dependency memo: an input dependency's answer is
// reused while every relation its program reads keeps its version, and
// re-evaluated as soon as one of them moves. The plain query primitive,
// datalog::QueryKnowledgeBase, is the oracle throughout.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datalog/kb_adapter.h"
#include "kb/write_guard.h"
#include "obs/obs.h"
#include "transducer/network.h"
#include "transducer/transducer.h"
#include "wrangler/config.h"
#include "wrangler/standard_transducers.h"

namespace vada {
namespace {

std::unique_ptr<Transducer> NoopTransducer(const std::string& name,
                                           const std::string& dependency) {
  return std::make_unique<FunctionTransducer>(
      name, "act", dependency, [](KnowledgeBase*) { return Status::OK(); });
}

/// An orchestrator over its own registry and metrics, with the
/// evaluation counter the memo is supposed to keep still.
class MemoFixture {
 public:
  MemoFixture() : orchestrator_(&registry_, std::make_unique<FifoPolicy>(),
                                Options(&obs_)) {}

  static OrchestratorOptions Options(obs::ObsContext* obs) {
    OrchestratorOptions options;
    options.obs = obs;
    return options;
  }

  TransducerRegistry& registry() { return registry_; }
  NetworkTransducer& orchestrator() { return orchestrator_; }

  double Evaluations() const {
    return obs_.metrics()->Snapshot().Value("vada_datalog_evaluations");
  }

  /// IsSatisfied, checked against the unmemoized query primitive.
  bool Satisfied(const std::string& name, KnowledgeBase* kb) {
    const Transducer* t = registry_.Find(name);
    EXPECT_NE(t, nullptr) << name;
    Result<bool> memoized = orchestrator_.IsSatisfied(*t, kb);
    EXPECT_TRUE(memoized.ok()) << memoized.status().ToString();
    Result<std::vector<Tuple>> oracle =
        datalog::QueryKnowledgeBase(t->input_dependency(), *kb, "ready");
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(memoized.value(), !oracle.value().empty()) << name;
    return memoized.ok() && memoized.value();
  }

 private:
  obs::ObsContext obs_;
  TransducerRegistry registry_;
  NetworkTransducer orchestrator_;
};

KnowledgeBase TwoRelationKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  EXPECT_TRUE(kb.Assert("a", {Value::Int(1)}).ok());
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("unrelated", {"x"})).ok());
  return kb;
}

constexpr const char* kNeedsTwo = "ready() :- a(2).";

TEST(DependencyMemoTest, UnchangedReadSetReusesTheAnswer) {
  MemoFixture f;
  ASSERT_TRUE(f.registry().Add(NoopTransducer("t", kNeedsTwo)).ok());
  KnowledgeBase kb = TwoRelationKb();

  EXPECT_FALSE(f.Satisfied("t", &kb));
  const double after_first = f.Evaluations();
  EXPECT_GT(after_first, 0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(f.Satisfied("t", &kb));
  // The oracle inside Satisfied() evaluates without metrics, so every
  // counted evaluation is the memoized path's.
  EXPECT_EQ(f.Evaluations(), after_first);
}

TEST(DependencyMemoTest, MutatingAReadRelationInvalidates) {
  MemoFixture f;
  ASSERT_TRUE(f.registry().Add(NoopTransducer("t", kNeedsTwo)).ok());
  KnowledgeBase kb = TwoRelationKb();
  EXPECT_FALSE(f.Satisfied("t", &kb));
  double evaluations = f.Evaluations();

  // Each step changes `a` and must be re-evaluated exactly once.
  auto expect_reevaluated = [&](bool want) {
    EXPECT_EQ(f.Satisfied("t", &kb), want);
    EXPECT_EQ(f.Evaluations(), evaluations + 1);
    EXPECT_EQ(f.Satisfied("t", &kb), want);  // and memoized again
    EXPECT_EQ(f.Evaluations(), evaluations + 1);
    evaluations = f.Evaluations();
  };

  ASSERT_TRUE(kb.Assert("a", {Value::Int(2)}).ok());
  expect_reevaluated(true);
  ASSERT_TRUE(kb.Retract("a", Tuple({Value::Int(2)})).ok());
  expect_reevaluated(false);

  Relation replacement(Schema::Untyped("a", {"x"}));
  ASSERT_TRUE(replacement.Insert(Tuple({Value::Int(2)})).ok());
  ASSERT_TRUE(kb.ReplaceRelation(replacement).ok());
  expect_reevaluated(true);

  ASSERT_TRUE(kb.DropRelation("a").ok());
  expect_reevaluated(false);
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  ASSERT_TRUE(kb.Assert("a", {Value::Int(2)}).ok());
  expect_reevaluated(true);

  // A relation the program does not read leaves the memo alone.
  ASSERT_TRUE(kb.Assert("unrelated", {Value::Int(7)}).ok());
  EXPECT_TRUE(f.Satisfied("t", &kb));
  EXPECT_EQ(f.Evaluations(), evaluations);
}

TEST(DependencyMemoTest, AnswersUnderAGuardSurviveItsRollback) {
  MemoFixture f;
  ASSERT_TRUE(f.registry().Add(NoopTransducer("t", kNeedsTwo)).ok());
  KnowledgeBase kb = TwoRelationKb();
  EXPECT_FALSE(f.Satisfied("t", &kb));
  uint64_t version_inside_guard = 0;
  {
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("a", {Value::Int(2)}).ok());
    version_inside_guard = kb.relation_version("a");
    EXPECT_TRUE(f.Satisfied("t", &kb));
    guard.Rollback();
  }
  // Rollback rewound the version counters, so this insert gets the very
  // version `a` had inside the guard — with different contents. The
  // answer seen inside the guard must not have been memoized.
  ASSERT_TRUE(kb.Assert("a", {Value::Int(3)}).ok());
  ASSERT_EQ(kb.relation_version("a"), version_inside_guard);
  EXPECT_FALSE(f.Satisfied("t", &kb));
}

TEST(DependencyMemoTest, ControlFactsResyncAfterAGuardRollback) {
  MemoFixture f;
  ASSERT_TRUE(f.registry()
                  .Add(NoopTransducer(
                      "t", "ready() :- sys_relation_nonempty(\"b\")."))
                  .ok());
  KnowledgeBase kb = TwoRelationKb();
  ASSERT_TRUE(kb.CreateRelation(Schema::Untyped("b", {"x"})).ok());
  EXPECT_FALSE(f.Satisfied("t", &kb));
  {
    // A sync inside the guard sees a global version the rollback hands
    // out again below; it must not count as having synced that version.
    // (`a` is already non-empty, so this sync itself changes nothing.)
    WriteGuard guard(&kb);
    ASSERT_TRUE(kb.Assert("a", {Value::Int(5)}).ok());
    EXPECT_FALSE(f.Satisfied("t", &kb));
    guard.Rollback();
  }
  ASSERT_TRUE(kb.Assert("b", {Value::Int(1)}).ok());
  EXPECT_TRUE(f.Satisfied("t", &kb));
}

TEST(DependencyMemoTest, RolledBackExecuteLeavesAnswersCorrect) {
  MemoFixture f;
  // `writer` inserts a(2), then fails: the write-guard rolls it back.
  ASSERT_TRUE(f.registry()
                  .Add(std::make_unique<FunctionTransducer>(
                      "writer", "act", "ready() :- a(1).",
                      [](KnowledgeBase* kb) {
                        VADA_RETURN_IF_ERROR(
                            kb->Assert("a", {Value::Int(2)}));
                        return Status::Internal("fails after writing");
                      }))
                  .ok());
  ASSERT_TRUE(f.registry().Add(NoopTransducer("reader", kNeedsTwo)).ok());
  KnowledgeBase kb = TwoRelationKb();
  OrchestrationStats stats;
  ASSERT_TRUE(f.orchestrator().Run(&kb, &stats).ok());
  EXPECT_GT(stats.rollbacks, 0u);
  EXPECT_FALSE(kb.FindRelation("a")->Contains(Tuple({Value::Int(2)})));
  EXPECT_FALSE(f.Satisfied("reader", &kb));
  EXPECT_TRUE(f.Satisfied("writer", &kb));
  ASSERT_TRUE(kb.Assert("a", {Value::Int(2)}).ok());
  EXPECT_TRUE(f.Satisfied("reader", &kb));
}

TEST(DependencyMemoTest, RunCountsMemoHitsAmongDependencyChecks) {
  MemoFixture f;
  ASSERT_TRUE(f.registry().Add(NoopTransducer("t", kNeedsTwo)).ok());
  ASSERT_TRUE(f.registry().Add(NoopTransducer("u", "ready() :- a(1).")).ok());
  KnowledgeBase kb = TwoRelationKb();
  OrchestrationStats first;
  ASSERT_TRUE(f.orchestrator().Run(&kb, &first).ok());
  EXPECT_EQ(first.steps, 1u);  // u, once; t never becomes ready
  const double evaluations = f.Evaluations();

  // New information in an unrelated relation: both are re-checked, both
  // from the memo.
  ASSERT_TRUE(kb.Assert("unrelated", {Value::Int(1)}).ok());
  OrchestrationStats second;
  ASSERT_TRUE(f.orchestrator().Run(&kb, &second).ok());
  EXPECT_EQ(second.dependency_checks, second.dependency_memo_hits);
  EXPECT_GT(second.dependency_memo_hits, 0u);
  EXPECT_EQ(f.Evaluations(), evaluations);
}

TEST(DependencyMemoTest, ParseFailureIsNeverMemoized) {
  MemoFixture f;
  ASSERT_TRUE(f.registry().Add(NoopTransducer("bad", "ready( :- nope")).ok());
  KnowledgeBase kb = TwoRelationKb();
  for (int i = 0; i < 3; ++i) {
    Result<bool> r = f.orchestrator().IsSatisfied(*f.registry().Find("bad"),
                                                  &kb);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }

  // In the scan it fails on every scan it is a candidate in, exactly as
  // without a memo: once per KB change, until quarantine benches it.
  TransducerRegistry registry;
  ASSERT_TRUE(registry.Add(NoopTransducer("bad", "ready( :- nope")).ok());
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "counter", "act", "ready() :- a(1).",
                      [](KnowledgeBase* kb) {
                        // Grows `a` to four rows, then is a no-op.
                        int64_t rows = static_cast<int64_t>(
                            kb->FindRelation("a")->size());
                        if (rows >= 4) return Status::OK();
                        return kb->Assert("a", {Value::Int(rows + 1)});
                      }))
                  .ok());
  OrchestratorOptions options;
  options.failure_policy.quarantine_after = 3;
  options.failure_policy.quarantine_max_probes = 0;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  const NetworkTransducer::FailureState* fs = orchestrator.failure_state("bad");
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->total_failures, 3u);
  EXPECT_EQ(stats.failures, 3u);
  EXPECT_EQ(orchestrator.QuarantinedTransducers(),
            std::vector<std::string>{"bad"});
  for (const Tuple& row : kb.FindRelation("sys_transducer_failure")->rows()) {
    EXPECT_EQ(row.at(1).string_value(), "parse_error");
  }
}

// --- Seeded property: memoized IsSatisfied == the plain query ---------

/// The relations the standard dependency texts read, directly or through
/// sys_relation_role / sys_relation_nonempty, plus one nobody reads.
const std::vector<std::string>& Relations() {
  static const std::vector<std::string> names = {
      "src1",         "src2",           "target",         "ref",
      "data_context", "mapping",        "match_schema",   "match_instance",
      "match",        "cfd",            "quality_metric", "selected_mapping",
      "feedback",     "source_quality", "unrelated"};
  return names;
}

Schema SchemaOf(const std::string& name) {
  if (name == "data_context") {
    return Schema::Untyped(name, {"relation", "kind", "ta", "ca"});
  }
  if (name == "mapping") {
    return Schema::Untyped(name, {"id", "t", "s", "c", "p", "x"});
  }
  return Schema::Untyped(name, {"v"});
}

/// A random row for `name`; values are drawn from small domains so that
/// retracts hit and data_context/mapping rows name real relations.
Tuple RandomRow(const std::string& name, Rng* rng) {
  const std::vector<std::string>& names = Relations();
  if (name == "data_context") {
    static const std::vector<std::string> kinds = {"reference", "master",
                                                   "example"};
    return Tuple({Value::String(rng->Choice(names)),
                  Value::String(rng->Choice(kinds)), Value::String("ta"),
                  Value::String("ca")});
  }
  if (name == "mapping") {
    return Tuple({Value::Int(rng->UniformInt(0, 2)), Value::String("target"),
                  Value::String("src1"), Value::Double(0.5),
                  Value::String(rng->Choice(names)), Value::String("x")});
  }
  return Tuple({Value::Int(rng->UniformInt(0, 3))});
}

void ApplyRandomMutation(KnowledgeBase* kb, Rng* rng) {
  const std::string& name = rng->Choice(Relations());
  switch (rng->UniformInt(0, 5)) {
    case 0:
    case 1:
      ASSERT_TRUE(kb->EnsureRelation(SchemaOf(name)).ok());
      ASSERT_TRUE(kb->Insert(name, RandomRow(name, rng)).ok());
      break;
    case 2: {
      const Relation* rel = kb->FindRelation(name);
      if (rel == nullptr || rel->empty()) break;
      Tuple row = rel->rows()[rng->Index(rel->size())];
      ASSERT_TRUE(kb->Retract(name, row).ok());
      break;
    }
    case 3: {
      Relation replacement(SchemaOf(name));
      for (int64_t i = rng->UniformInt(0, 2); i > 0; --i) {
        (void)replacement.Insert(RandomRow(name, rng));
      }
      ASSERT_TRUE(kb->ReplaceRelation(replacement).ok());
      break;
    }
    case 4:
      if (kb->HasRelation(name)) {
        ASSERT_TRUE(kb->DropRelation(name).ok());
      }
      break;
    case 5: {
      static const std::vector<RelationRole> roles = {
          RelationRole::kSource, RelationRole::kTarget,
          RelationRole::kReference, RelationRole::kMetadata};
      kb->catalog().SetRole(name, rng->Choice(roles));
      // Role changes reach sys_relation_role on the next sync; force one
      // half of the time so role-only steps also move the read set.
      if (rng->Bernoulli(0.5)) {
        ASSERT_TRUE(NetworkTransducer::SyncControlFacts(kb).ok());
      }
      break;
    }
  }
}

TEST(DependencyMemoTest, MatchesUnmemoizedQueryOverRandomMutations) {
  constexpr int kSeeds = 8;
  constexpr int kSteps = 120;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MemoFixture f;
    WranglingState state;
    state.target_relation = "target";
    ASSERT_TRUE(RegisterStandardTransducers(&f.registry(), &state).ok());
    ASSERT_EQ(f.registry().transducers().size(), 13u);

    KnowledgeBase kb;
    Rng rng(static_cast<uint64_t>(seed));
    std::optional<WriteGuard> guard;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (!guard.has_value() && rng.Bernoulli(0.1)) {
        guard.emplace(&kb);
      } else if (guard.has_value() && rng.Bernoulli(0.2)) {
        if (rng.Bernoulli(0.7)) {
          guard->Rollback();
        } else {
          guard->Commit();
        }
        guard.reset();
        // Same step: a mutation that reuses the versions a rollback
        // rewound, before any check could refresh the memo.
        ApplyRandomMutation(&kb, &rng);
      } else {
        ApplyRandomMutation(&kb, &rng);
      }
      for (const std::unique_ptr<Transducer>& t : f.registry().transducers()) {
        f.Satisfied(t->name(), &kb);
      }
      if (testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace vada
