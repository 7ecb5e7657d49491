// Fixpoint property of the orchestrator's read-set gate (DESIGN.md §5e):
// when Run() returns, no transducer whose input dependency is ready may
// change the knowledge base. The gate skips a transducer when nothing it
// read has moved; if it ever skipped one whose re-run would still change
// the KB, its read set was incomplete and this test catches it.
//
// The transducers are captured through config.transducer_decorator. After
// every Run(), each ready one is executed under a WriteGuard and must
// leave the global version where it was. Scenarios: the golden demo
// bootstrap, a 10-event soak stream, a seeded 50-event stream, and a
// reference-data edit that moves no mapping result.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datalog/kb_adapter.h"
#include "extract/open_government.h"
#include "extract/real_estate.h"
#include "kb/write_guard.h"
#include "mapping/mapping.h"
#include "wrangler/session.h"

namespace vada {
namespace {

Schema TargetSchema() {
  return Schema::Untyped("target", {"type", "description", "street",
                                    "postcode", "bedrooms", "price",
                                    "crimerank"});
}

/// A session whose registered transducers are captured for the check.
class CheckedSession {
 public:
  explicit CheckedSession(WranglerConfig config = WranglerConfig()) {
    config.transducer_decorator = [this](std::unique_ptr<Transducer> t) {
      transducers_.push_back(t.get());
      return t;
    };
    session_ = std::make_unique<WranglingSession>(std::move(config));
  }

  WranglingSession& session() { return *session_; }

  /// Runs to fixpoint, then executes every ready transducer under a
  /// WriteGuard and expects none of them to move the KB.
  void RunAndCheck(const std::string& where) {
    Status run = session_->Run();
    ASSERT_TRUE(run.ok()) << where << ": " << run.ToString();
    KnowledgeBase& kb = session_->kb();
    ASSERT_FALSE(transducers_.empty());
    for (Transducer* t : transducers_) {
      Result<std::vector<Tuple>> ready =
          datalog::QueryKnowledgeBase(t->input_dependency(), kb, "ready");
      ASSERT_TRUE(ready.ok()) << t->name() << ": " << ready.status().ToString();
      if (ready.value().empty()) continue;
      const uint64_t before = kb.global_version();
      WriteGuard guard(&kb);
      Status s = t->Execute(&kb, nullptr);
      EXPECT_TRUE(s.ok()) << where << ", " << t->name() << ": " << s.ToString();
      EXPECT_EQ(kb.global_version(), before)
          << where << ": ready transducer " << t->name()
          << " still changes the KB after Run() returned";
      // An unchanged KB is committed, so the session goes on undisturbed.
      if (s.ok() && kb.global_version() == before) guard.Commit();
    }
  }

 private:
  std::vector<Transducer*> transducers_;
  std::unique_ptr<WranglingSession> session_;
};

TEST(FixpointPropertyTest, GoldenDemoScenario) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 80;
  uopts.num_postcodes = 12;
  uopts.seed = 21;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm_err;
  rm_err.seed = 5;
  ExtractionErrorOptions otm_err;
  otm_err.seed = 6;

  CheckedSession checked;
  WranglingSession& session = checked.session();
  ASSERT_TRUE(session.SetTargetSchema(TargetSchema()).ok());
  ASSERT_TRUE(session.AddSource(ExtractRightmove(truth, rm_err)).ok());
  ASSERT_TRUE(session.AddSource(ExtractOnthemarket(truth, otm_err)).ok());
  checked.RunAndCheck("bootstrap");
  ASSERT_NE(session.result(), nullptr);
}

/// Versions of the mapping relation and of every mapping's raw result.
std::vector<uint64_t> MappingResultVersions(const KnowledgeBase& kb) {
  std::vector<uint64_t> out = {kb.relation_version("mapping")};
  const Relation* rel = kb.FindRelation("mapping");
  if (rel == nullptr) return out;
  Result<std::vector<Mapping>> mappings = MappingsFromRelation(*rel);
  EXPECT_TRUE(mappings.ok()) << mappings.status().ToString();
  if (!mappings.ok()) return out;
  for (const Mapping& m : mappings.value()) {
    out.push_back(kb.relation_version(m.result_predicate));
  }
  return out;
}

/// A reference binding whose values occur in no source changes what
/// quality_metrics reports (an accuracy figure for `type`) but moves no
/// match, no CFD and no mapping result. quality_metrics learns of it
/// only through the data-context mirror it reads, so the gate must
/// still re-run it.
TEST(FixpointPropertyTest, ReferenceBindingThatMovesNoMappingResult) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 40;
  uopts.num_postcodes = 8;
  uopts.seed = 11;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm;
  rm.seed = 31;
  ExtractionErrorOptions otm;
  otm.seed = 32;
  otm.coverage = 0.6;

  CheckedSession checked;
  WranglingSession& session = checked.session();
  ASSERT_TRUE(session.SetTargetSchema(TargetSchema()).ok());
  ASSERT_TRUE(session.AddSource(ExtractRightmove(truth, rm)).ok());
  ASSERT_TRUE(session.AddSource(ExtractOnthemarket(truth, otm)).ok());
  checked.RunAndCheck("bootstrap");
  const std::vector<uint64_t> before = MappingResultVersions(session.kb());
  const uint64_t metrics_before = session.kb().relation_version("quality_metric");

  Relation types(Schema::Untyped("reference_type", {"kind"}));
  ASSERT_TRUE(types.Insert(Tuple({Value::String("lighthouse")})).ok());
  ASSERT_TRUE(types.Insert(Tuple({Value::String("windmill")})).ok());
  ASSERT_TRUE(session
                  .AddDataContext(types, RelationRole::kReference,
                                  {{"type", "kind"}})
                  .ok());
  checked.RunAndCheck("reference binding");
  EXPECT_EQ(MappingResultVersions(session.kb()), before);
  EXPECT_NE(session.kb().relation_version("quality_metric"), metrics_before);
}

/// Replays `events` seeded events on `checked`, checking the fixpoint
/// after each Run(). The mix is the paper's pay-as-you-go loop: feedback
/// on current result rows, trickling source rows, the address reference
/// context (once) and user context. With `vary_user_context`, every
/// user-context event picks one of two statements, so the context
/// changes more than once.
void ReplayStream(CheckedSession* checked, uint64_t seed, int events,
                  bool vary_user_context) {
  PropertyUniverseOptions uopts;
  uopts.num_properties = 40;
  uopts.num_postcodes = 8;
  uopts.seed = 11;
  GroundTruth truth = GeneratePropertyUniverse(uopts);
  ExtractionErrorOptions rm;
  rm.seed = 31;
  ExtractionErrorOptions otm;
  otm.seed = 32;
  otm.coverage = 0.6;
  WranglingSession& session = checked->session();
  ASSERT_TRUE(session.SetTargetSchema(TargetSchema()).ok());
  ASSERT_TRUE(session.AddSource(ExtractRightmove(truth, rm)).ok());
  ASSERT_TRUE(session.AddSource(ExtractOnthemarket(truth, otm)).ok());
  ASSERT_TRUE(session.AddSource(GenerateDeprivation(truth)).ok());
  checked->RunAndCheck("bootstrap");

  Rng rng(seed);
  bool added_context = false;
  bool added_user_context = false;
  for (int event = 1; event <= events; ++event) {
    const std::string where = "event " + std::to_string(event);
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // feedback on random current result rows
        const Relation* result = session.result();
        ASSERT_NE(result, nullptr);
        ASSERT_FALSE(result->rows().empty());
        int items = static_cast<int>(rng.UniformInt(1, 3));
        const std::vector<std::string> attrs = {"bedrooms", "price", ""};
        for (int i = 0; i < items; ++i) {
          const Tuple& row =
              result->rows()[rng.UniformInt(0, result->rows().size() - 1)];
          FeedbackItem item{row, attrs[rng.UniformInt(0, attrs.size() - 1)],
                            rng.Bernoulli(0.7) ? FeedbackPolarity::kIncorrect
                                               : FeedbackPolarity::kCorrect};
          ASSERT_TRUE(session.AddFeedback(item).ok());
        }
        break;
      }
      case 1: {  // a fresh batch of source rows trickles in
        PropertyUniverseOptions extra;
        extra.num_properties = static_cast<int>(rng.UniformInt(2, 5));
        extra.num_postcodes = 3;
        extra.seed = 1000 + event;
        GroundTruth more = GeneratePropertyUniverse(extra);
        ExtractionErrorOptions err;
        err.seed = 2000 + event;
        ASSERT_TRUE(session.AddSource(ExtractRightmove(more, err)).ok());
        break;
      }
      case 2: {  // data context (once)
        if (added_context) continue;
        added_context = true;
        Relation address = GenerateAddressReference(truth);
        std::vector<ContextCorrespondence> corr = {{"street", "street"},
                                                   {"postcode", "postcode"}};
        ASSERT_TRUE(
            session.AddDataContext(address, RelationRole::kReference, corr)
                .ok());
        break;
      }
      default: {  // user context
        if (added_user_context && !vary_user_context) continue;
        added_user_context = true;
        const bool crime_first = !vary_user_context || rng.Bernoulli(0.5);
        UserContext uc;
        ASSERT_TRUE(uc.AddStatement("completeness",
                                    crime_first ? "crimerank" : "bedrooms",
                                    "very strongly", "completeness",
                                    crime_first ? "bedrooms" : "crimerank")
                        .ok());
        ASSERT_TRUE(session.SetUserContext(uc).ok());
        break;
      }
    }
    checked->RunAndCheck(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FixpointPropertyTest, TwinSessionSoakStream) {
  CheckedSession checked;
  ReplayStream(&checked, /*seed=*/2026, /*events=*/10,
               /*vary_user_context=*/false);
}

TEST(FixpointPropertyTest, SeededFiftyEventStream) {
  CheckedSession checked;
  ReplayStream(&checked, /*seed=*/77, /*events=*/50,
               /*vary_user_context=*/true);
}

}  // namespace
}  // namespace vada
