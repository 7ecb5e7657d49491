// Seeded inputs of the pay-as-you-go wrangling benchmark.
//
// Everything a run feeds the system is generated here, during set-up,
// from the run's seed: the scenario instances (ground truth, the two
// listing extractions, deprivation and address data), the listing rows
// held back for trickling in later, and the event schedule. The
// annotator's choice of which result row to annotate is also seeded, but
// depends on the result it walks, so it is made when the event fires.
#ifndef WRANGLEBENCH_WORKLOAD_H_
#define WRANGLEBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "context/user_context.h"
#include "extract/real_estate.h"
#include "feedback/feedback.h"
#include "kb/relation.h"
#include "kb/schema.h"
#include "wrangler/config.h"

namespace wranglebench {

/// One benchmark workload. A run cycles over `variants` scenario
/// instances; an epoch is one fresh session of one variant that
/// bootstraps and then receives `epoch_events` events (0 = the epoch is
/// the bootstrap alone).
struct WorkloadSpec {
  std::string name;
  size_t properties = 0;
  size_t postcodes = 0;
  size_t variants = 0;
  size_t epoch_events = 0;
  /// Write-ahead logging with FsyncPolicy::kNone; every other workload
  /// runs the WranglerConfig defaults.
  bool durable = false;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when no workload has this name.
const WorkloadSpec* FindWorkload(const std::string& name);

enum class EventKind { kFeedback, kSource, kUserContext };
const char* EventKindName(EventKind kind);

/// The inputs of one scenario variant.
struct ScenarioInputs {
  uint64_t seed = 0;
  vada::GroundTruth truth;
  /// Listing extractions minus their held-back rows.
  vada::Relation rightmove;
  vada::Relation onthemarket;
  vada::Relation deprivation;
  vada::Relation address;
  /// Held-back listing rows, one batch per kSource event, in schedule
  /// order (alternating rightmove and onthemarket).
  std::vector<vada::Relation> held_back;
  /// Kinds of the epoch's events, about 6:3:1 feedback : source : user
  /// context.
  std::vector<EventKind> schedule;
  /// Seed of the annotator's walk over the result.
  uint64_t annotation_seed = 0;
};

/// Deterministic in (spec, seed, variant).
ScenarioInputs GenerateScenario(const WorkloadSpec& spec, uint64_t seed,
                                size_t variant);

/// Canonical byte rendering of every generated input, in generation
/// order; equal bytes mean equal inputs.
std::string SerializeInputs(const ScenarioInputs& inputs);

/// The paper's target schema (Figure 2(b)).
vada::Schema TargetSchema();

/// The Figure 2(d) priorities, and the same statements with every
/// preference reversed. User-context events alternate between the two.
vada::UserContext PaperUserContext();
vada::UserContext ReversedUserContext();

/// Order-independent digest of a relation's schema and row set.
uint64_t RelationDigest(const vada::Relation& relation);

/// The simulated user of step 3: walks the current result in a seeded
/// shuffle, flags an implausible bedroom count (> 8) as incorrect and
/// confirms every other row's bedrooms as correct. A row's place in the
/// walk depends only on its values, so the order stays stable while the
/// result changes underneath. Once every row has been annotated the walk
/// starts again.
class Annotator {
 public:
  explicit Annotator(uint64_t seed) : seed_(seed) {}

  /// nullopt only when `result` is empty or has no bedrooms attribute.
  std::optional<vada::FeedbackItem> Next(const vada::Relation& result);

 private:
  uint64_t seed_;
  std::unordered_set<uint64_t> annotated_;
};

}  // namespace wranglebench

#endif  // WRANGLEBENCH_WORKLOAD_H_
