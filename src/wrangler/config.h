#ifndef VADA_WRANGLER_CONFIG_H_
#define VADA_WRANGLER_CONFIG_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "context/data_context.h"
#include "context/user_context.h"
#include "datalog/planner.h"
#include "feedback/feedback.h"
#include "fusion/dedup.h"
#include "feedback/propagation.h"
#include "kb/durability.h"
#include "mapping/executor.h"
#include "mapping/generator.h"
#include "mapping/selector.h"
#include "match/combiner.h"
#include "match/schema_matcher.h"
#include "obs/obs.h"
#include "quality/cfd.h"
#include "transducer/failure_policy.h"
#include "transducer/transducer.h"

namespace vada {

/// Options of the source-selection transducer (paper §2.3: "a source
/// selection or a mapping selection transducer ... selects sources or
/// mappings, taking into account the user context").
struct SourceSelectorOptions {
  /// Sources whose trust score falls below 0.25 are excluded from mapping
  /// generation entirely. With false, trust scores are still computed
  /// (they weight fusion votes) but nothing is excluded.
  bool exclude_below_min = true;
};

/// How strictly the session enforces static analysis of transducer
/// Vadalog (input dependencies and VadalogTransducer programs) at
/// registration time.
enum class AnalysisEnforcement {
  kOff = 0,         ///< skip analysis entirely
  kErrorsOnly = 1,  ///< errors fail registration; warnings are logged
  kStrict = 2,      ///< warnings fail registration too
};

/// Tuning knobs of the standard transducer suite. A component value is
/// surfaced here only when some caller sets it; the rest are constants
/// at their point of use.
struct WranglerConfig {
  SchemaMatcherOptions schema_matcher;
  CombinerOptions combiner;
  MappingGeneratorOptions generator;
  CfdLearnerOptions cfd_learner;
  SelectorOptions selector;
  SourceSelectorOptions source_selector;
  DedupOptions dedup;  ///< blocking attribute auto-chosen when empty
  PropagatorOptions propagator;
  /// Observability: metrics, spans and exports (see WranglingSession::
  /// MetricsReport). `obs.enabled = false` strips all instrumentation
  /// down to pointer checks on the hot paths.
  obs::ObsOptions obs;
  /// Registration-time static analysis of transducer Vadalog (safety,
  /// stratification, wardedness, catalog, lint). With the default,
  /// analysis errors (unsafe rules, arity mismatches, missing `ready`
  /// goal) reject the transducer and warnings are logged.
  AnalysisEnforcement analysis = AnalysisEnforcement::kErrorsOnly;
  /// Fault tolerance of the orchestration loop, which always runs: every
  /// Execute() is write-guarded and rolled back on failure, then retried
  /// with a fixed exponential backoff (1 to 50 ms). Repeat offenders are
  /// quarantined (circuit breaker, 3-scan cooldown), and every failure
  /// becomes a sys_transducer_failure fact; Run() degrades instead of
  /// aborting. The attempts, quarantine threshold, probe budget and
  /// execution budgets are settable. See failure_policy.h and DESIGN.md
  /// §5d.
  FailurePolicy fault_tolerance;
  /// Join planning for every Datalog evaluation the session runs —
  /// mapping execution, dependency scans and orchestration queries:
  /// composite hash-index probing (DESIGN.md §5f); literal order is
  /// always cost-based. Defaults on; `{.indexes = false}` is the
  /// full-scan reference oracle. The derived facts are identical at
  /// either setting of `indexes`. See README "Performance & tuning".
  datalog::PlannerOptions planner;
  /// Knowledge-base durability: write-ahead logging of every KB
  /// mutation, atomic checkpoints and crash recovery at session open
  /// (kb/durability.h, DESIGN.md §5i). Off by default — the commit path
  /// is then identical to the purely in-memory one. With `enabled`,
  /// `directory` must name a writable location; the session recovers
  /// whatever committed state that directory holds before the first
  /// Run().
  DurabilityOptions durability;
  /// Applied to every transducer registered through the session
  /// (standard suite and custom). Used by the fault-injection soak
  /// harness (fault_injection.h); nullptr means no wrapping.
  TransducerRegistry::Decorator transducer_decorator;
  /// Name of the final result relation in the knowledge base.
  std::string result_relation = "wrangled_result";
  /// Display name under which the session registers itself in the
  /// observability session registry (the /sessions endpoint; DESIGN.md
  /// §5g). Names need not be unique — the registry id disambiguates.
  std::string session_name = "wrangling-session";
};

/// Mutable state shared by the standard transducers and the session that
/// owns them. The knowledge base remains the source of truth for
/// everything Datalog-visible (matches, mappings, metrics, feedback
/// existence); this struct holds the richer C++ objects behind them.
struct WranglingState {
  WranglerConfig config;
  /// Name of the target-schema relation registered in the KB.
  std::string target_relation;
  DataContext data_context;
  UserContext user_context;
  FeedbackStore feedback;
  /// CFDs learned by the cfd_learning transducer (KB holds the serialised
  /// form; this cache holds the evidence relation the checker needs).
  std::vector<Cfd> cfds;
  Relation cfd_evidence;
  bool has_cfd_evidence = false;
  /// Memoised feedback lineage: once an annotation is attributed to the
  /// matches that fed it, the attribution is permanent — even after the
  /// resulting penalty changes the mappings (see MatchAttribution docs).
  std::vector<MatchAttribution> feedback_attributions;
  std::set<size_t> attributed_feedback_items;
};

}  // namespace vada

#endif  // VADA_WRANGLER_CONFIG_H_
