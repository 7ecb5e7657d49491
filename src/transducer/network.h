#ifndef VADA_TRANSDUCER_NETWORK_H_
#define VADA_TRANSDUCER_NETWORK_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/planner.h"
#include "kb/knowledge_base.h"
#include "obs/obs.h"
#include "transducer/failure_policy.h"
#include "transducer/trace.h"
#include "transducer/transducer.h"

namespace vada {

/// Decides which of the eligible transducers runs next. "It is the
/// responsibility of a network transducer to select between the
/// executable transducers" (paper §2.4). Policies are written by
/// transducer developers or system administrators.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual const std::string& name() const = 0;
  /// Pre-condition: `eligible` is non-empty (the orchestrator reaches
  /// fixpoint before ever calling Choose on an empty set). Must return
  /// one of its elements. Implementations should debug-assert the
  /// precondition and return nullptr (never dereference) when violated
  /// by a direct caller; the orchestrator treats nullptr as an error.
  virtual Transducer* Choose(const std::vector<Transducer*>& eligible) = 0;
};

/// The paper's generic network-transducer policy: "choosing transducers
/// for one type of functionality before another, such as data extraction
/// before mapping, and then using a priority scheme to make more local
/// decisions". Activities earlier in `activity_order` win; ties fall back
/// to registration order. Unknown activities rank last.
class ActivityPriorityPolicy : public SchedulingPolicy {
 public:
  explicit ActivityPriorityPolicy(std::vector<std::string> activity_order);

  /// The default VADA ordering: matching, mapping, execution, quality,
  /// repair, selection, fusion, feedback.
  static std::vector<std::string> DefaultActivityOrder();

  const std::string& name() const override { return name_; }
  /// Pre-condition: `eligible` non-empty (see SchedulingPolicy::Choose).
  Transducer* Choose(const std::vector<Transducer*>& eligible) override;

 private:
  std::string name_ = "activity_priority";
  std::map<std::string, int> rank_;
};

/// Registration-order policy — the "no domain knowledge" baseline.
class FifoPolicy : public SchedulingPolicy {
 public:
  const std::string& name() const override { return name_; }
  /// Pre-condition: `eligible` non-empty (see SchedulingPolicy::Choose).
  Transducer* Choose(const std::vector<Transducer*>& eligible) override;

 private:
  std::string name_ = "fifo";
};

/// Options for the orchestrator.
struct OrchestratorOptions {
  /// Hard step cap: a diverging (non-idempotent) transducer set stops
  /// with an error instead of spinning.
  size_t max_steps = 500;
  /// Observability context (not owned; may outlive many Run calls). Null
  /// or disabled: every instrumentation site reduces to a pointer check.
  obs::ObsContext* obs = nullptr;
  /// Fault tolerance: write-guard rollback, retry/backoff, quarantine,
  /// budgets, failure facts (see failure_policy.h).
  FailurePolicy failure_policy;
  /// Join planning of the scan's dependency queries (composite index
  /// probing, cost-based literal reordering; see datalog/planner.h).
  datalog::PlannerOptions planner;
};

/// Aggregate statistics of one orchestration run.
struct OrchestrationStats {
  size_t steps = 0;
  size_t effective_steps = 0;   ///< steps that changed the KB
  size_t dependency_checks = 0; ///< input dependencies the scans consulted
  size_t dependency_memo_hits = 0; ///< ...of which answered from the memo
  size_t read_set_skips = 0;    ///< gated out: nothing they read moved
  size_t failures = 0;          ///< steps whose every attempt failed
  size_t retries = 0;           ///< extra Execute() attempts after a failure
  size_t rollbacks = 0;         ///< write-guard rollbacks performed
  size_t quarantined = 0;       ///< transducers benched when Run returned
  bool budget_exhausted = false; ///< Run stopped on its wall-clock budget
};

/// The dynamic orchestrator (the paper's network transducer). Repeatedly:
///  1. materialises the sys_* control relations describing the KB
///     (sys_relation_role, sys_relation_nonempty, sys_relation_attribute);
///  2. finds eligible transducers: not quarantined AND something the
///     transducer read in its last step has moved since (the read-set
///     gate) AND its input dependency derives `ready`;
///  3. lets the scheduling policy pick one and executes it under a
///     KB write-guard, retrying failed attempts per the failure policy;
/// until no transducer is eligible (fixpoint), max_steps is hit, or the
/// wall-clock budget runs out (best-effort stop).
/// The read set is what the KB logged the last step reading
/// (KnowledgeBase::ReadLog); DESIGN.md §5e gives its recording rules.
///
/// Failure semantics (DESIGN.md §5d): a failing Execute() never leaves
/// partial writes behind (rollback), is retried with exponential backoff,
/// and is eventually quarantined (circuit breaker) so the session
/// degrades gracefully instead of aborting. Failures become KB facts:
/// sys_transducer_failure(transducer, code, attempt, step) and
/// sys_transducer_quarantined(transducer, step).
class NetworkTransducer {
 public:
  /// Circuit-breaker state of one transducer (exposed for tests/UIs).
  enum class Circuit {
    kClosed = 0,  ///< healthy, schedulable
    kOpen,        ///< quarantined: excluded from the eligible set
    kHalfOpen,    ///< probation: next execution is a trial
  };

  /// Per-transducer failure bookkeeping.
  struct FailureState {
    Circuit circuit = Circuit::kClosed;
    size_t consecutive_failures = 0;
    size_t total_failures = 0;
    size_t cooldown_progress = 0;  ///< scans sat out while open
    size_t probes_used = 0;        ///< half-open probes spent this Run
    /// Fixpoint retry granted to a closed circuit with pending failures
    /// (skips the gate once); cleared on the next execution.
    bool retry_scheduled = false;
    std::string last_error;
  };

  NetworkTransducer(TransducerRegistry* registry,
                    std::unique_ptr<SchedulingPolicy> policy,
                    OrchestratorOptions options = OrchestratorOptions());

  /// Runs to fixpoint. The trace accumulates across calls (pay-as-you-go
  /// steps re-enter Run after the user adds context/feedback).
  Status Run(KnowledgeBase* kb, OrchestrationStats* stats = nullptr);

  /// Answers one transducer's input dependency against `kb` (with
  /// control relations refreshed) through the same memoized evaluation
  /// the eligibility scan uses; exposed for Table 1 benches/tests.
  Result<bool> IsSatisfied(const Transducer& transducer, KnowledgeBase* kb);

  /// Why a transducer would or would not run in the next eligibility
  /// scan (phase 1 order: quarantine, gate, dependency).
  struct Eligibility {
    enum class Reason { kQuarantined, kInputsUnchanged, kDependencyNotReady,
                        kCandidate };
    Reason reason = Reason::kCandidate;
    /// kInputsUnchanged: what its last step read, at the versions it
    /// saw then (empty under the global-version gate).
    std::map<std::string, uint64_t> reads;
  };
  Result<Eligibility> ExplainEligibility(const Transducer& transducer,
                                         KnowledgeBase* kb);

  const ExecutionTrace& trace() const { return trace_; }
  void ClearTrace() { trace_ = ExecutionTrace(); }

  /// Refreshes the sys_* control relations; normally internal, exposed
  /// for tests.
  static Status SyncControlFacts(KnowledgeBase* kb);

  /// SyncControlFacts, skipped when the KB's global version is unchanged
  /// since this instance's previous sync. Sound because the sys_*
  /// relations are a pure function of the non-sys relations, and every
  /// role change in the codebase rides on a relation mutation (which
  /// bumps the global version). A sync under an active WriteGuard is not
  /// remembered: its rollback hands the version out again.
  Status SyncControlFactsIfStale(KnowledgeBase* kb);

  /// Names of transducers whose circuit is currently open, sorted.
  std::vector<std::string> QuarantinedTransducers() const;

  /// Failure bookkeeping for `name`; nullptr when it never failed.
  const FailureState* failure_state(const std::string& name) const;

 private:
  /// Records one failure (execute or dependency-eval): metrics, failure
  /// facts, consecutive-failure count, circuit transitions.
  void RecordFailure(Transducer* transducer, const Status& error,
                     size_t attempts, size_t step, KnowledgeBase* kb,
                     OrchestrationStats* stats, obs::MetricsRegistry* metrics);

  /// Transitions after a successful step: closes a half-open circuit
  /// (exits quarantine) and resets the consecutive-failure count.
  void RecordSuccess(Transducer* transducer, KnowledgeBase* kb,
                     obs::MetricsRegistry* metrics);

  size_t OpenCircuits() const;
  void PublishQuarantineGauge(obs::MetricsRegistry* metrics) const;

  /// The gate: the versions of what a transducer's last step read, or
  /// the global version it ran at. Current: nothing of it has moved.
  struct LastRun {
    std::map<std::string, uint64_t> relations;
    std::map<RelationRole, uint64_t> roles;
    std::optional<uint64_t> global_version;
    bool Current(const KnowledgeBase& kb) const;
  };

  /// A parsed input-dependency program and its memoized answer, valid
  /// while every relation in `reads` is at the recorded version. Sound
  /// because answers are recorded only outside a WriteGuard, so the
  /// recorded versions are never handed out again (DESIGN.md §5e). Like
  /// last_run_, the memo assumes one KB per orchestrator.
  struct Dependency {
    datalog::Program program;
    std::vector<std::string> reads;  ///< datalog::ReferencedRelations
    std::vector<uint64_t> versions;  ///< of `reads`, when `ready` was set
    std::optional<bool> ready;       ///< nullopt: nothing memoized yet

    /// Whether `ready` is memoized and none of `reads` moved since.
    bool Fresh(const KnowledgeBase& kb) const;
  };

  /// Returns the dependency of a query text, parsing it at most once per
  /// distinct text (dependency texts are fixed at transducer
  /// construction, and eligibility scans consult each of them every
  /// step). Parse errors are returned afresh on every call.
  Result<Dependency*> ParsedDependency(const std::string& source);

  /// Answers `dep` from its memo when none of its reads moved (sets
  /// `*hit`), else evaluates it over `kb`. An OK answer is memoized
  /// unless a WriteGuard is active (its rollback may hand out the
  /// versions the evaluation saw again); errors are never memoized.
  Result<bool> CheckDependency(Dependency* dep, const KnowledgeBase& kb,
                               bool* hit);

  TransducerRegistry* registry_;  // not owned
  std::unique_ptr<SchedulingPolicy> policy_;
  OrchestratorOptions options_;
  ExecutionTrace trace_;
  std::map<std::string, LastRun> last_run_;
  std::map<std::string, FailureState> failure_state_;
  std::map<std::string, Dependency> parsed_deps_;
  /// vada_orchestrator_dependency_check_seconds, resolved once (the
  /// obs context is fixed at construction); null without metrics.
  obs::Histogram* dep_check_hist_ = nullptr;
  uint64_t control_synced_at_version_ = 0;
  size_t next_step_ = 0;
};

}  // namespace vada

#endif  // VADA_TRANSDUCER_NETWORK_H_
