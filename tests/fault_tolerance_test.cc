#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "obs/obs.h"
#include "transducer/fault_injection.h"
#include "transducer/network.h"
#include "transducer/transducer.h"

namespace vada {
namespace {

KnowledgeBase SeedKb() {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CreateRelation(Schema::Untyped("a", {"x"})).ok());
  EXPECT_TRUE(kb.Insert("a", {Value::Int(1)}).ok());
  return kb;
}

constexpr const char* kReadyOnA = "ready() :- sys_relation_nonempty(\"a\").";

/// A policy that never sleeps and records the requested backoffs.
FailurePolicy RecordingPolicy(std::vector<double>* backoffs) {
  FailurePolicy fp;
  fp.sleep_ms = [backoffs](double ms) { backoffs->push_back(ms); };
  return fp;
}

TEST(FaultToleranceTest, PartialWritesAreRolledBack) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  // Writes two tuples, then fails: the orchestrator must roll both back.
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "partial", "act", kReadyOnA,
                      [](KnowledgeBase* kb) {
                        VADA_RETURN_IF_ERROR(kb->EnsureRelation(
                            Schema::Untyped("out", {"v"})));
                        VADA_RETURN_IF_ERROR(
                            kb->Insert("out", {Value::Int(1)}));
                        VADA_RETURN_IF_ERROR(
                            kb->Insert("out", {Value::Int(2)}));
                        return Status::Internal("died mid-write");
                      }))
                  .ok());
  std::vector<double> backoffs;
  OrchestratorOptions options;
  options.failure_policy = RecordingPolicy(&backoffs);
  options.failure_policy.max_attempts = 2;
  options.failure_policy.quarantine_after = 1;
  options.failure_policy.quarantine_max_probes = 0;  // exact counts below
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());  // degrades, no abort
  // No partial state survived any of the attempts.
  EXPECT_FALSE(kb.HasRelation("out"));
  EXPECT_EQ(stats.rollbacks, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  // The failure is a KB fact: sys_transducer_failure(name, code, attempt,
  // step) — queryable by dependency programs and scheduling policies.
  const Relation* failures = kb.FindRelation("sys_transducer_failure");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->size(), 1u);
  const Tuple& fact = failures->rows().front();
  EXPECT_EQ(fact.at(0).string_value(), "partial");
  EXPECT_EQ(fact.at(1).string_value(), "internal");
  EXPECT_EQ(fact.at(2).int_value(), 2);  // attempts consumed
}

TEST(FaultToleranceTest, RetriesUseExponentialBackoff) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  auto inner = std::make_unique<FunctionTransducer>(
      "flaky", "act", kReadyOnA, [](KnowledgeBase* kb) {
        VADA_RETURN_IF_ERROR(
            kb->EnsureRelation(Schema::Untyped("out", {"v"})));
        return kb->Insert("out", {Value::Int(42)});
      });
  FaultSpec spec;
  spec.kind = FaultKind::kFailFirstN;
  spec.count = 3;
  ASSERT_TRUE(registry.Add(WrapWithFault(std::move(inner), spec)).ok());

  std::vector<double> backoffs;
  OrchestratorOptions options;
  options.failure_policy = RecordingPolicy(&backoffs);
  options.failure_policy.max_attempts = 4;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  // Three failed attempts, then success on the fourth — all in one step.
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.failures, 0u);  // the step ultimately succeeded
  ASSERT_EQ(backoffs, (std::vector<double>{1.0, 2.0, 4.0}));
  ASSERT_TRUE(kb.HasRelation("out"));
  EXPECT_EQ(kb.FindRelation("out")->size(), 1u);
  // The step's trace row records the attempts and the rollbacks.
  ASSERT_FALSE(orchestrator.trace().events().empty());
  EXPECT_EQ(orchestrator.trace().events().front().attempts, 4u);
  EXPECT_TRUE(orchestrator.trace().events().front().rolled_back);
}

TEST(FaultToleranceTest, BackoffDoublesUpToItsCap) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  auto inner = std::make_unique<FunctionTransducer>(
      "flaky", "act", kReadyOnA, [](KnowledgeBase* kb) {
        VADA_RETURN_IF_ERROR(
            kb->EnsureRelation(Schema::Untyped("out", {"v"})));
        return kb->Insert("out", {Value::Int(42)});
      });
  FaultSpec spec;
  spec.kind = FaultKind::kFailFirstN;
  spec.count = 7;
  ASSERT_TRUE(registry.Add(WrapWithFault(std::move(inner), spec)).ok());

  std::vector<double> backoffs;
  OrchestratorOptions options;
  options.failure_policy = RecordingPolicy(&backoffs);
  options.failure_policy.max_attempts = 8;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  // Seven failed attempts, then success on the eighth; the seventh sleep
  // would be 64 ms but is capped at 50.
  EXPECT_EQ(stats.retries, 7u);
  EXPECT_EQ(stats.failures, 0u);
  ASSERT_EQ(backoffs,
            (std::vector<double>{1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0}));
  ASSERT_TRUE(kb.HasRelation("out"));
  EXPECT_EQ(kb.FindRelation("out")->size(), 1u);
}

TEST(FaultToleranceTest, PermanentFailureIsQuarantinedAndRunCompletes) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "doomed", "act", kReadyOnA,
                      [](KnowledgeBase*) {
                        return Status::Internal("always fails");
                      }))
                  .ok());
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "producer", "act", kReadyOnA,
                      [](KnowledgeBase* kb) {
                        VADA_RETURN_IF_ERROR(kb->EnsureRelation(
                            Schema::Untyped("result", {"v"})));
                        return kb->Insert("result", {Value::Int(7)});
                      }))
                  .ok());
  std::vector<double> backoffs;
  OrchestratorOptions options;
  options.failure_policy = RecordingPolicy(&backoffs);
  options.failure_policy.max_attempts = 2;
  options.failure_policy.quarantine_after = 2;
  options.failure_policy.quarantine_max_probes = 1;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  // Graceful degradation: Run completes OK despite the permanent failure…
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  // …the healthy transducer still produced its output…
  ASSERT_TRUE(kb.HasRelation("result"));
  EXPECT_EQ(kb.FindRelation("result")->size(), 1u);
  // …and the broken one ended up benched, with its state inspectable.
  EXPECT_EQ(orchestrator.QuarantinedTransducers(),
            std::vector<std::string>{"doomed"});
  const NetworkTransducer::FailureState* fs =
      orchestrator.failure_state("doomed");
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->circuit, NetworkTransducer::Circuit::kOpen);
  EXPECT_GE(fs->total_failures, 2u);
  const Relation* quarantined = kb.FindRelation("sys_transducer_quarantined");
  ASSERT_NE(quarantined, nullptr);
  ASSERT_FALSE(quarantined->empty());
  EXPECT_EQ(quarantined->rows().front().at(0).string_value(), "doomed");
  EXPECT_EQ(stats.quarantined, 1u);
}

TEST(FaultToleranceTest, HealedTransducerExitsQuarantine) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  auto inner = std::make_unique<FunctionTransducer>(
      "recovers", "act", kReadyOnA, [](KnowledgeBase* kb) {
        VADA_RETURN_IF_ERROR(
            kb->EnsureRelation(Schema::Untyped("out", {"v"})));
        return kb->Insert("out", {Value::Int(1)});
      });
  FaultSpec spec;
  spec.kind = FaultKind::kFailFirstN;
  spec.count = 4;  // 2 steps x 2 attempts all fail -> quarantine; 5th OK
  ASSERT_TRUE(registry.Add(WrapWithFault(std::move(inner), spec)).ok());
  std::vector<double> backoffs;
  OrchestratorOptions options;
  options.failure_policy = RecordingPolicy(&backoffs);
  options.failure_policy.max_attempts = 2;
  options.failure_policy.quarantine_after = 2;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  // The fixpoint probe let it back in, it succeeded and left quarantine.
  EXPECT_TRUE(orchestrator.QuarantinedTransducers().empty());
  const NetworkTransducer::FailureState* fs =
      orchestrator.failure_state("recovers");
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->circuit, NetworkTransducer::Circuit::kClosed);
  EXPECT_EQ(fs->total_failures, 2u);
  EXPECT_EQ(fs->consecutive_failures, 0u);
  ASSERT_TRUE(kb.HasRelation("out"));
  // Exiting quarantine retracts the sys_transducer_quarantined fact.
  const Relation* quarantined = kb.FindRelation("sys_transducer_quarantined");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_TRUE(quarantined->empty());
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(FaultToleranceTest, RunBudgetStopsGracefully) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "slowish", "act", kReadyOnA,
                      [](KnowledgeBase*) { return Status::OK(); }))
                  .ok());
  OrchestratorOptions options;
  options.failure_policy.run_budget_ms = 1e-6;  // exhausted immediately
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_EQ(stats.steps, 0u);
}

TEST(FaultToleranceTest, CooperativeDeadlineIsDelivered) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  // A well-behaved long-running body: polls CheckContinue() and returns
  // its error when the soft deadline passes.
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "cooperative", "act", kReadyOnA,
                      [](KnowledgeBase*, ExecutionContext* ctx) {
                        if (ctx == nullptr) return Status::OK();
                        EXPECT_TRUE(ctx->has_deadline());
                        while (true) {
                          Status s = ctx->CheckContinue();
                          if (!s.ok()) return s;
                        }
                      }))
                  .ok());
  OrchestratorOptions options;
  options.failure_policy.max_attempts = 1;
  options.failure_policy.execute_timeout_ms = 2.0;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  ASSERT_TRUE(orchestrator.Run(&kb).ok());  // degrades, no abort
  // The body returned the deadline error, and the failure fact keeps it.
  const Relation* failures = kb.FindRelation("sys_transducer_failure");
  ASSERT_NE(failures, nullptr);
  ASSERT_FALSE(failures->empty());
  EXPECT_EQ(failures->rows().front().at(1).string_value(),
            "deadline_exceeded");
}

TEST(FaultToleranceTest, DependencyEvalFailureQuarantinesNotAborts) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "bad_dep", "act", "ready( :- nope",
                      [](KnowledgeBase*) { return Status::OK(); }))
                  .ok());
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "producer", "act", kReadyOnA,
                      [](KnowledgeBase* kb) {
                        VADA_RETURN_IF_ERROR(kb->EnsureRelation(
                            Schema::Untyped("result", {"v"})));
                        return kb->Insert("result", {Value::Int(7)});
                      }))
                  .ok());
  OrchestratorOptions options;
  options.failure_policy.quarantine_after = 2;
  options.failure_policy.quarantine_max_probes = 0;
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  OrchestrationStats stats;
  ASSERT_TRUE(orchestrator.Run(&kb, &stats).ok());
  ASSERT_TRUE(kb.HasRelation("result"));
  EXPECT_EQ(orchestrator.QuarantinedTransducers(),
            std::vector<std::string>{"bad_dep"});
  // The failure fact preserves the dependency error's code.
  const Relation* failures = kb.FindRelation("sys_transducer_failure");
  ASSERT_NE(failures, nullptr);
  ASSERT_FALSE(failures->empty());
  EXPECT_EQ(failures->rows().front().at(1).string_value(), "parse_error");
}

TEST(FaultToleranceTest, IsSatisfiedPreservesDependencyErrorCode) {
  KnowledgeBase kb = SeedKb();
  FunctionTransducer t("bad_dep", "act", "ready( :- nope",
                       [](KnowledgeBase*) { return Status::OK(); });
  NetworkTransducer orchestrator(nullptr, std::make_unique<FifoPolicy>());
  Result<bool> satisfied = orchestrator.IsSatisfied(t, &kb);
  ASSERT_FALSE(satisfied.ok());
  EXPECT_EQ(satisfied.status().code(), StatusCode::kParseError);
  EXPECT_NE(satisfied.status().message().find("bad_dep"), std::string::npos);
}

TEST(FaultToleranceTest, FailureMetricsAppearInPrometheusExposition) {
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "doomed", "act", kReadyOnA,
                      [](KnowledgeBase*) {
                        return Status::Internal("always fails");
                      }))
                  .ok());
  obs::ObsContext obs;
  std::vector<double> backoffs;
  OrchestratorOptions options;
  options.obs = &obs;
  options.failure_policy = RecordingPolicy(&backoffs);
  options.failure_policy.max_attempts = 2;
  options.failure_policy.quarantine_after = 1;
  options.failure_policy.quarantine_max_probes = 0;  // exact counts below
  NetworkTransducer orchestrator(&registry, std::make_unique<FifoPolicy>(),
                                 options);
  ASSERT_TRUE(orchestrator.Run(&kb).ok());
  std::string text = obs.metrics()->RenderPrometheus();
  EXPECT_NE(
      text.find(
          "vada_transducer_failures_total{code=\"internal\",transducer=\"doomed\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("vada_transducer_retries_total{transducer=\"doomed\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("vada_orchestrator_quarantined 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("vada_kb_rollback_seconds"), std::string::npos) << text;
}

TEST(FaultToleranceTest, NullChoosingPolicyIsAnOrchestrationError) {
  // A broken policy that violates its contract by returning nullptr.
  class BrokenPolicy : public SchedulingPolicy {
   public:
    const std::string& name() const override { return name_; }
    Transducer* Choose(const std::vector<Transducer*>&) override {
      return nullptr;
    }

   private:
    std::string name_ = "broken";
  };
  KnowledgeBase kb = SeedKb();
  TransducerRegistry registry;
  ASSERT_TRUE(registry
                  .Add(std::make_unique<FunctionTransducer>(
                      "fine", "act", kReadyOnA,
                      [](KnowledgeBase*) { return Status::OK(); }))
                  .ok());
  NetworkTransducer orchestrator(&registry, std::make_unique<BrokenPolicy>());
  Status s = orchestrator.Run(&kb);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("broken"), std::string::npos);
}

TEST(FaultInjectorTest, ScheduleIsDeterministicPerSeedAndName) {
  FaultInjector::Options opt;
  opt.seed = 1234;
  opt.fault_rate = 1.0;
  FaultInjector a(opt);
  FaultInjector b(opt);
  for (const std::string& name :
       {std::string("schema_matching"), std::string("fusion"),
        std::string("mapping_generation")}) {
    FaultSpec sa = a.SpecFor(name);
    FaultSpec sb = b.SpecFor(name);
    EXPECT_EQ(sa.kind, sb.kind);
    EXPECT_EQ(sa.count, sb.count);
    EXPECT_EQ(sa.seed, sb.seed);
    EXPECT_NE(sa.kind, FaultKind::kNone);  // fault_rate = 1.0
  }
  opt.seed = 99;
  FaultInjector c(opt);
  // A different seed reshuffles the schedule for at least one name.
  bool any_different = false;
  for (const std::string& name :
       {std::string("schema_matching"), std::string("fusion"),
        std::string("mapping_generation")}) {
    if (c.SpecFor(name).kind != a.SpecFor(name).kind ||
        c.SpecFor(name).seed != a.SpecFor(name).seed) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultInjectorTest, WrapperPreservesTransducerIdentity) {
  auto inner = std::make_unique<VadalogTransducer>(
      "derive", "reasoning", kReadyOnA, "out(X) :- a(X).",
      std::vector<std::string>{"out"});
  const std::string* program_before = inner->vadalog_program();
  ASSERT_NE(program_before, nullptr);
  FaultSpec spec;
  spec.kind = FaultKind::kFailFirstN;
  std::unique_ptr<Transducer> wrapped = WrapWithFault(std::move(inner), spec);
  EXPECT_EQ(wrapped->name(), "derive");
  EXPECT_EQ(wrapped->activity(), "reasoning");
  EXPECT_EQ(wrapped->input_dependency(), kReadyOnA);
  ASSERT_NE(wrapped->vadalog_program(), nullptr);
  EXPECT_EQ(*wrapped->vadalog_program(), "out(X) :- a(X).");
}

}  // namespace
}  // namespace vada
