#include "transducer/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"
#include "datalog/kb_adapter.h"
#include "datalog/parser.h"
#include "kb/write_guard.h"
#include "transducer/execution_context.h"

namespace vada {

namespace {

constexpr const char* kFailureRelation = "sys_transducer_failure";
constexpr const char* kQuarantineRelation = "sys_transducer_quarantined";

void SleepBackoff(const FailurePolicy& policy, double ms) {
  if (policy.sleep_ms != nullptr) {
    policy.sleep_ms(ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Asserts sys_transducer_failure(transducer, code, attempt, step). Best
/// effort: a failure to record a failure must not mask the original one.
void AssertFailureFact(KnowledgeBase* kb, const std::string& transducer,
                       StatusCode code, size_t attempts, size_t step) {
  Status s = kb->EnsureRelation(Schema::Untyped(
      kFailureRelation, {"transducer", "code", "attempt", "step"}));
  if (s.ok()) {
    s = kb->Insert(kFailureRelation,
                   Tuple({Value::String(transducer),
                          Value::String(StatusCodeName(code)),
                          Value::Int(static_cast<int64_t>(attempts)),
                          Value::Int(static_cast<int64_t>(step))}));
  }
  if (!s.ok()) {
    VADA_LOG(kWarning, "orchestrator")
        << "could not assert failure fact for " << transducer << ": "
        << s.ToString();
  }
}

void AssertQuarantineFact(KnowledgeBase* kb, const std::string& transducer,
                          size_t step) {
  Status s = kb->EnsureRelation(
      Schema::Untyped(kQuarantineRelation, {"transducer", "step"}));
  if (s.ok()) {
    s = kb->Insert(kQuarantineRelation,
                   Tuple({Value::String(transducer),
                          Value::Int(static_cast<int64_t>(step))}));
  }
  if (!s.ok()) {
    VADA_LOG(kWarning, "orchestrator")
        << "could not assert quarantine fact for " << transducer << ": "
        << s.ToString();
  }
}

void RetractQuarantineFacts(KnowledgeBase* kb, const std::string& transducer) {
  const Relation* rel = kb->FindRelation(kQuarantineRelation);
  if (rel == nullptr) return;
  std::vector<Tuple> to_remove;
  for (const Tuple& row : rel->rows()) {
    if (row.at(0).string_value() == transducer) to_remove.push_back(row);
  }
  for (const Tuple& row : to_remove) {
    (void)kb->Retract(kQuarantineRelation, row);
  }
}

/// Chains the transducer's name onto a dependency or Execute() error but
/// keeps the underlying code (a parse error stays kParseError, an
/// evaluation bug stays kInternal) so callers can dispatch on it.
Status DependencyError(const Transducer& transducer, const Status& error) {
  return Status(error.code(), "input dependency of " + transducer.name() +
                                  " failed to evaluate: " + error.message());
}
Status ExecuteError(const Transducer& transducer, const Status& error) {
  return Status(error.code(), "transducer " + transducer.name() +
                                  " failed: " + error.message());
}

}  // namespace

ActivityPriorityPolicy::ActivityPriorityPolicy(
    std::vector<std::string> activity_order) {
  for (size_t i = 0; i < activity_order.size(); ++i) {
    rank_[activity_order[i]] = static_cast<int>(i);
  }
}

std::vector<std::string> ActivityPriorityPolicy::DefaultActivityOrder() {
  return {"extraction", "matching",  "mapping",  "execution",
          "quality",    "repair",    "selection", "fusion",
          "feedback"};
}

Transducer* ActivityPriorityPolicy::Choose(
    const std::vector<Transducer*>& eligible) {
  // Pre-condition (SchedulingPolicy::Choose): non-empty eligible set. The
  // orchestrator guarantees it; guard direct callers against UB anyway.
  assert(!eligible.empty() && "Choose() requires a non-empty eligible set");
  if (eligible.empty()) return nullptr;
  Transducer* best = eligible.front();
  int best_rank = 1 << 20;
  for (Transducer* t : eligible) {
    auto it = rank_.find(t->activity());
    int r = (it == rank_.end()) ? (1 << 20) - 1 : it->second;
    if (r < best_rank) {
      best_rank = r;
      best = t;
    }
  }
  return best;
}

Transducer* FifoPolicy::Choose(const std::vector<Transducer*>& eligible) {
  assert(!eligible.empty() && "Choose() requires a non-empty eligible set");
  if (eligible.empty()) return nullptr;
  return eligible.front();
}

NetworkTransducer::NetworkTransducer(TransducerRegistry* registry,
                                     std::unique_ptr<SchedulingPolicy> policy,
                                     OrchestratorOptions options)
    : registry_(registry), policy_(std::move(policy)), options_(options) {
  obs::MetricsRegistry* m =
      options_.obs != nullptr ? options_.obs->metrics() : nullptr;
  if (m != nullptr) {
    dep_check_hist_ = m->GetHistogram(
        "vada_orchestrator_dependency_check_seconds",
        "One input-dependency Datalog query",
        obs::Histogram::DefaultLatencyBucketsSeconds());
  }
}

Status NetworkTransducer::SyncControlFacts(KnowledgeBase* kb) {
  Relation roles(
      Schema::Untyped("sys_relation_role", {"relation", "role"}));
  Relation nonempty(Schema::Untyped("sys_relation_nonempty", {"relation"}));
  Relation attrs(
      Schema::Untyped("sys_relation_attribute", {"relation", "attribute"}));

  for (const std::string& name : kb->RelationNames()) {
    if (StartsWith(name, "sys_")) continue;
    const Relation* rel = kb->FindRelation(name);
    if (rel == nullptr) continue;
    std::optional<RelationRole> role = kb->catalog().GetRole(name);
    if (role.has_value()) {
      VADA_RETURN_IF_ERROR(roles.InsertUnchecked(
          Tuple({Value::String(name),
                 Value::String(RelationRoleName(*role))})));
    }
    if (!rel->empty()) {
      VADA_RETURN_IF_ERROR(
          nonempty.InsertUnchecked(Tuple({Value::String(name)})));
    }
    for (const Attribute& a : rel->schema().attributes()) {
      VADA_RETURN_IF_ERROR(attrs.InsertUnchecked(
          Tuple({Value::String(name), Value::String(a.name)})));
    }
  }
  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(roles));
  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(nonempty));
  VADA_RETURN_IF_ERROR(kb->ReplaceRelationIfChanged(attrs));
  return Status::OK();
}

Status NetworkTransducer::SyncControlFactsIfStale(KnowledgeBase* kb) {
  if (control_synced_at_version_ != 0 &&
      kb->global_version() == control_synced_at_version_) {
    return Status::OK();
  }
  VADA_RETURN_IF_ERROR(SyncControlFacts(kb));
  // Record the post-sync version: if the sync itself bumped it, the
  // sys_* relations already reflect the (unchanged) non-sys state. Not
  // under a WriteGuard, whose rollback rewinds the version counter.
  control_synced_at_version_ = kb->HasActiveGuard() ? 0 : kb->global_version();
  return Status::OK();
}

Result<NetworkTransducer::Dependency*> NetworkTransducer::ParsedDependency(
    const std::string& source) {
  auto it = parsed_deps_.find(source);
  if (it == parsed_deps_.end()) {
    Result<datalog::Program> program = datalog::Parser::Parse(source);
    if (!program.ok()) return program.status();
    Dependency dep;
    dep.program = std::move(program).value();
    dep.reads = datalog::ReferencedRelations(dep.program);
    it = parsed_deps_.emplace(source, std::move(dep)).first;
  }
  return &it->second;
}

bool NetworkTransducer::Dependency::Fresh(const KnowledgeBase& kb) const {
  if (!ready.has_value()) return false;
  for (size_t i = 0; i < reads.size(); ++i) {
    if (kb.relation_version(reads[i]) != versions[i]) return false;
  }
  return true;
}

Result<bool> NetworkTransducer::CheckDependency(Dependency* dep,
                                                const KnowledgeBase& kb,
                                                bool* hit) {
  *hit = dep->Fresh(kb);
  if (*hit) return *dep->ready;
  datalog::EvalOptions eval_options;
  eval_options.planner = options_.planner;
  eval_options.metrics =
      options_.obs != nullptr ? options_.obs->metrics() : nullptr;
  obs::ScopedSpan dep_span(
      options_.obs != nullptr ? options_.obs->spans() : nullptr,
      dep_check_hist_, "dep_check", "orchestrator");
  std::vector<uint64_t> versions;
  for (const std::string& name : dep->reads) {
    versions.push_back(kb.relation_version(name));
  }
  Result<std::vector<Tuple>> answer =
      datalog::QueryKnowledgeBase(dep->program, kb, "ready", eval_options);
  if (!answer.ok()) return answer.status();
  const bool ready = !answer.value().empty();
  if (!kb.HasActiveGuard()) {
    dep->versions = std::move(versions);
    dep->ready = ready;
  }
  return ready;
}

bool NetworkTransducer::LastRun::Current(const KnowledgeBase& kb) const {
  if (global_version.has_value()) return *global_version >= kb.global_version();
  for (const auto& [name, version] : relations) {
    if (kb.relation_version(name) != version) return false;
  }
  for (const auto& [role, version] : roles) {
    if (kb.catalog().role_version(role) != version) return false;
  }
  return true;
}

Result<bool> NetworkTransducer::IsSatisfied(const Transducer& transducer,
                                            KnowledgeBase* kb) {
  VADA_RETURN_IF_ERROR(SyncControlFactsIfStale(kb));
  Result<Dependency*> dep = ParsedDependency(transducer.input_dependency());
  if (!dep.ok()) return DependencyError(transducer, dep.status());
  bool hit = false;
  Result<bool> ready = CheckDependency(dep.value(), *kb, &hit);
  if (!ready.ok()) return DependencyError(transducer, ready.status());
  return ready;
}

Result<NetworkTransducer::Eligibility> NetworkTransducer::ExplainEligibility(
    const Transducer& transducer, KnowledgeBase* kb) {
  VADA_RETURN_IF_ERROR(SyncControlFactsIfStale(kb));
  Eligibility out;
  const FailureState* fs = failure_state(transducer.name());
  if (fs != nullptr && fs->circuit == Circuit::kOpen) {
    out.reason = Eligibility::Reason::kQuarantined;
    return out;
  }
  const bool probation = fs != nullptr && (fs->circuit == Circuit::kHalfOpen ||
                                           fs->retry_scheduled);
  auto it = last_run_.find(transducer.name());
  if (!probation && it != last_run_.end() && it->second.Current(*kb)) {
    out.reason = Eligibility::Reason::kInputsUnchanged;
    out.reads = it->second.relations;
    return out;
  }
  Result<bool> ready = IsSatisfied(transducer, kb);
  if (!ready.ok()) return ready.status();
  out.reason = ready.value() ? Eligibility::Reason::kCandidate
                             : Eligibility::Reason::kDependencyNotReady;
  return out;
}

std::vector<std::string> NetworkTransducer::QuarantinedTransducers() const {
  std::vector<std::string> out;
  for (const auto& [name, fs] : failure_state_) {
    if (fs.circuit == Circuit::kOpen) out.push_back(name);
  }
  return out;  // std::map iteration is already sorted
}

const NetworkTransducer::FailureState* NetworkTransducer::failure_state(
    const std::string& name) const {
  auto it = failure_state_.find(name);
  return it == failure_state_.end() ? nullptr : &it->second;
}

size_t NetworkTransducer::OpenCircuits() const {
  size_t n = 0;
  for (const auto& [name, fs] : failure_state_) {
    if (fs.circuit == Circuit::kOpen) ++n;
  }
  return n;
}

void NetworkTransducer::PublishQuarantineGauge(
    obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics
      ->GetGauge("vada_orchestrator_quarantined",
                 "Transducers currently benched by the circuit breaker")
      ->Set(static_cast<int64_t>(OpenCircuits()));
}

void NetworkTransducer::RecordFailure(Transducer* transducer,
                                      const Status& error, size_t attempts,
                                      size_t step, KnowledgeBase* kb,
                                      OrchestrationStats* stats,
                                      obs::MetricsRegistry* metrics) {
  const FailurePolicy& fp = options_.failure_policy;
  FailureState& fs = failure_state_[transducer->name()];
  ++fs.total_failures;
  ++fs.consecutive_failures;
  fs.retry_scheduled = false;
  fs.last_error = error.ToString();
  if (stats != nullptr) ++stats->failures;
  if (metrics != nullptr) {
    metrics
        ->GetCounter("vada_transducer_failures_total",
                     "Failed orchestration steps (all attempts exhausted "
                     "or dependency evaluation failed)",
                     {{"transducer", transducer->name()},
                      {"code", StatusCodeName(error.code())}})
        ->Increment();
  }
  AssertFailureFact(kb, transducer->name(), error.code(), attempts, step);
  VADA_LOG(kWarning, "orchestrator")
      << "transducer " << transducer->name() << " failed (attempts: "
      << attempts << ", step: " << step << "): " << error.ToString();

  if (fs.circuit == Circuit::kHalfOpen) {
    // Failed its probation trial: back to quarantine.
    fs.circuit = Circuit::kOpen;
    fs.cooldown_progress = 0;
  } else if (fs.circuit == Circuit::kClosed &&
             fs.consecutive_failures >= fp.quarantine_after) {
    fs.circuit = Circuit::kOpen;
    fs.cooldown_progress = 0;
    AssertQuarantineFact(kb, transducer->name(), step);
    VADA_LOG(kWarning, "orchestrator")
        << "quarantining transducer " << transducer->name() << " after "
        << fs.consecutive_failures << " consecutive failures";
  }
  PublishQuarantineGauge(metrics);
}

void NetworkTransducer::RecordSuccess(Transducer* transducer,
                                      KnowledgeBase* kb,
                                      obs::MetricsRegistry* metrics) {
  auto it = failure_state_.find(transducer->name());
  if (it == failure_state_.end()) return;
  FailureState& fs = it->second;
  fs.consecutive_failures = 0;
  fs.cooldown_progress = 0;
  fs.retry_scheduled = false;
  if (fs.circuit != Circuit::kClosed) {
    fs.circuit = Circuit::kClosed;
    RetractQuarantineFacts(kb, transducer->name());
    VADA_LOG(kInfo, "orchestrator")
        << "transducer " << transducer->name() << " exited quarantine";
    PublishQuarantineGauge(metrics);
  }
}

Status NetworkTransducer::Run(KnowledgeBase* kb, OrchestrationStats* stats) {
  OrchestrationStats local;
  OrchestrationStats* st = (stats != nullptr) ? stats : &local;
  const FailurePolicy& fp = options_.failure_policy;

  obs::MetricsRegistry* m =
      options_.obs != nullptr ? options_.obs->metrics() : nullptr;
  obs::SpanCollector* spans =
      options_.obs != nullptr ? options_.obs->spans() : nullptr;
  obs::Counter* steps_counter = nullptr;
  obs::Counter* effective_counter = nullptr;
  obs::Counter* dep_checks_counter = nullptr;
  obs::Counter* memo_hits_counter = nullptr;
  obs::Counter* read_set_skips_counter = nullptr;
  obs::Histogram* eligibility_hist = nullptr;
  obs::Histogram* rollback_hist = nullptr;
  if (m != nullptr) {
    steps_counter =
        m->GetCounter("vada_orchestrator_steps", "Transducer executions");
    effective_counter = m->GetCounter("vada_orchestrator_effective_steps",
                                      "Executions that changed the KB");
    dep_checks_counter = m->GetCounter(
        "vada_orchestrator_dependency_checks",
        "Input dependencies consulted by eligibility scans");
    memo_hits_counter = m->GetCounter(
        "vada_orchestrator_dependency_memo_hits",
        "Dependency checks answered from the memo without evaluation");
    read_set_skips_counter = m->GetCounter(
        "vada_orchestrator_read_set_skips",
        "Transducers gated out because nothing they read moved");
    eligibility_hist = m->GetHistogram(
        "vada_orchestrator_eligibility_seconds",
        "Per-step control-fact sync plus eligibility scan",
        obs::Histogram::DefaultLatencyBucketsSeconds());
    rollback_hist =
        m->GetHistogram("vada_kb_rollback_seconds",
                        "WriteGuard rollback of one failed Execute()",
                        obs::Histogram::DefaultLatencyBucketsSeconds());
  }

  // Fixpoint probes are a per-Run budget (a new Run is new information:
  // the user added context or feedback, so benched transducers deserve
  // fresh trials).
  for (auto& [name, fs] : failure_state_) fs.probes_used = 0;

  const uint64_t run_start_ns = obs::MonotonicNanos();
  auto finalize = [&](Status status) {
    st->quarantined = OpenCircuits();
    PublishQuarantineGauge(m);
    return status;
  };

  for (size_t step = 0; step < options_.max_steps; ++step) {
    // Wall-clock budget: stop gracefully and keep the best-effort result.
    if (fp.run_budget_ms > 0) {
      double elapsed_ms =
          static_cast<double>(obs::MonotonicNanos() - run_start_ns) * 1e-6;
      if (elapsed_ms >= fp.run_budget_ms) {
        st->budget_exhausted = true;
        if (m != nullptr) {
          m->GetCounter("vada_orchestrator_budget_exhausted_total",
                        "Run() calls stopped by their wall-clock budget")
              ->Increment();
        }
        VADA_LOG(kWarning, "orchestrator")
            << "run budget (" << fp.run_budget_ms
            << " ms) exhausted after " << st->steps
            << " steps; returning best-effort result";
        return finalize(Status::OK());
      }
    }

    // Eligibility: not quarantined (open circuits sit out their cooldown)
    // AND something the transducer read moved since it last ran AND its
    // dependency is satisfied. Gating runs over every transducer before
    // any dependency is checked: the checks may record failure facts,
    // which move the KB, so interleaving the two would change what the
    // gate of the remaining transducers sees.
    std::vector<Transducer*> eligible;
    {
      obs::ScopedSpan eligibility_span(spans, eligibility_hist, "eligibility",
                                       "orchestrator");
      VADA_RETURN_IF_ERROR(SyncControlFactsIfStale(kb));

      // Phase 1: gating (mutates failure_state_).
      std::vector<Transducer*> candidates;
      for (const std::unique_ptr<Transducer>& t : registry_->transducers()) {
        auto fit = failure_state_.find(t->name());
        FailureState* fs =
            fit == failure_state_.end() ? nullptr : &fit->second;
        bool probation = false;
        if (fs != nullptr) {
          if (fs->circuit == Circuit::kOpen) {
            // Probes are a per-Run budget shared between cooldown and
            // fixpoint promotion; once spent, the transducer stays
            // benched, which is what guarantees Run() terminates for a
            // permanently failing transducer.
            if (fs->probes_used >= fp.quarantine_max_probes) continue;
            // Eligibility scans an open circuit sits out before its
            // half-open probe.
            constexpr size_t kQuarantineCooldownScans = 3;
            if (++fs->cooldown_progress < kQuarantineCooldownScans) {
              continue;  // still benched
            }
            fs->circuit = Circuit::kHalfOpen;  // cooldown over: probation
            ++fs->probes_used;
          }
          probation =
              fs->circuit == Circuit::kHalfOpen || fs->retry_scheduled;
        }
        if (!probation) {
          auto it = last_run_.find(t->name());
          if (it != last_run_.end() && it->second.Current(*kb)) {
            if (!it->second.global_version.has_value()) {
              ++st->read_set_skips;
              if (read_set_skips_counter != nullptr) {
                read_set_skips_counter->Increment();
              }
            }
            continue;  // nothing new since this transducer last ran
          }
        }
        candidates.push_back(t.get());
      }

      // Phase 2: check dependencies in registration order, against the
      // KB as it stands after any failure facts recorded earlier in this
      // loop. Counters count consultations, memo hits included.
      for (Transducer* t : candidates) {
        ++st->dependency_checks;
        if (dep_checks_counter != nullptr) dep_checks_counter->Increment();
        Result<Dependency*> dep = ParsedDependency(t->input_dependency());
        bool hit = false;
        Result<bool> ready = dep.ok()
                                 ? CheckDependency(dep.value(), *kb, &hit)
                                 : Result<bool>(dep.status());
        if (hit) {
          ++st->dependency_memo_hits;
          if (memo_hits_counter != nullptr) memo_hits_counter->Increment();
        }
        if (!ready.ok()) {
          Status dep_error = DependencyError(*t, ready.status());
          // Dependency-evaluation failures get the same treatment as
          // execute failures: recorded, counted towards quarantine, and
          // the transducer is skipped instead of aborting the run.
          RecordFailure(t, dep_error, 1, step, kb, st, m);
          last_run_[t->name()] = LastRun{{}, {}, kb->global_version()};
          continue;
        }
        if (ready.value()) eligible.push_back(t);
      }
    }
    if (eligible.empty()) {
      // Would-be fixpoint. Before settling, give failed transducers one
      // more trial: benched ones with probe budget go half-open (this is
      // how a healed flaky transducer exits quarantine when nothing else
      // moves the KB), and closed ones with pending failures get a single
      // gate bypass (each grant either succeeds — resetting the
      // count — or moves them one failure closer to quarantine, so the
      // loop still terminates).
      bool promoted = false;
      for (auto& [name, fs] : failure_state_) {
        if (fs.circuit == Circuit::kOpen &&
            fs.probes_used < fp.quarantine_max_probes) {
          fs.circuit = Circuit::kHalfOpen;
          ++fs.probes_used;
          promoted = true;
        } else if (fs.circuit == Circuit::kClosed &&
                   fs.consecutive_failures > 0 && !fs.retry_scheduled) {
          fs.retry_scheduled = true;
          promoted = true;
        }
      }
      if (promoted) continue;
      return finalize(Status::OK());  // fixpoint
    }

    Transducer* chosen = policy_->Choose(eligible);
    if (chosen == nullptr) {
      return finalize(Status::Internal(
          "scheduling policy " + policy_->name() +
          " returned no transducer from a non-empty eligible set"));
    }
    const uint64_t version_before = kb->global_version();
    const bool outer_guard = kb->HasActiveGuard();
    uint64_t facts_added_before = kb->facts_added();
    uint64_t facts_removed_before = kb->facts_removed();
    obs::Histogram* execute_hist =
        m == nullptr
            ? nullptr
            : m->GetHistogram("vada_transducer_execute_seconds",
                              "Transducer Execute() wall time",
                              obs::Histogram::DefaultLatencyBucketsSeconds(),
                              {{"transducer", chosen->name()}});

    // Execute with retry: every attempt runs under a write-guard, so a
    // failed attempt leaves the KB exactly as it was (versions included),
    // and logs what it reads for the gate. Retries sleep an exponential
    // backoff: 1, 2, 4, ... ms, capped at 50 ms.
    constexpr double kBackoffInitialMs = 1.0;
    constexpr double kBackoffMultiplier = 2.0;
    constexpr double kBackoffMaxMs = 50.0;
    const size_t max_attempts = std::max<size_t>(1, fp.max_attempts);
    uint64_t t0 = obs::MonotonicNanos();
    Status exec_status;
    size_t attempts = 0;
    bool rolled_back = false;
    double backoff_ms = kBackoffInitialMs;
    KnowledgeBase::ReadLog reads;  // of the last attempt
    for (attempts = 1; attempts <= max_attempts; ++attempts) {
      ExecutionContext ctx;
      ctx.set_attempt(attempts);
      ctx.set_step(next_step_);
      ctx.SetTimeoutMs(fp.execute_timeout_ms);
      obs::ScopedSpan execute_span(spans, execute_hist, chosen->name(),
                                   chosen->activity());
      WriteGuard guard(kb);
      reads = KnowledgeBase::ReadLog();
      kb->SetReadLog(&reads);
      exec_status = chosen->Execute(kb, &ctx);
      kb->SetReadLog(nullptr);
      if (exec_status.ok()) {
        guard.Commit();
        break;
      }
      uint64_t rb0 = obs::MonotonicNanos();
      guard.Rollback();
      if (rollback_hist != nullptr) {
        rollback_hist->Observe(
            static_cast<double>(obs::MonotonicNanos() - rb0) * 1e-9);
      }
      rolled_back = true;
      ++st->rollbacks;
      if (attempts < max_attempts) {
        ++st->retries;
        if (m != nullptr) {
          m->GetCounter("vada_transducer_retries_total",
                        "Execute() retries after a rolled-back failure",
                        {{"transducer", chosen->name()}})
              ->Increment();
        }
        SleepBackoff(fp, backoff_ms);
        backoff_ms = std::min(backoff_ms * kBackoffMultiplier, kBackoffMaxMs);
      }
    }
    attempts = std::min(attempts, max_attempts);
    uint64_t t1 = obs::MonotonicNanos();

    // Gate on what the transducer *saw*. Writes other than
    // ReplaceRelationIfChanged count as new information (it re-runs once
    // more and must reach a no-op, which is how non-idempotent transducer
    // bugs surface at max_steps instead of silently converging on stale
    // state); under the global gate all of its own writes do.
    LastRun& last = last_run_[chosen->name()];
    last = LastRun();
    if (reads.whole_kb || outer_guard) {
      last.global_version = version_before;
    } else {
      for (const std::string& name : reads.relations) {
        last.relations[name] = kb->relation_version(name);
      }
      for (const auto& [name, version] : reads.overwritten) {
        last.relations[name] = version;
      }
      for (RelationRole role : reads.roles) {
        last.roles[role] = kb->catalog().role_version(role);
      }
    }
    ++st->steps;
    uint64_t version_after = kb->global_version();
    bool changed = version_after != version_before;
    if (changed) ++st->effective_steps;
    uint64_t facts_added = kb->facts_added() - facts_added_before;
    uint64_t facts_removed = kb->facts_removed() - facts_removed_before;

    if (m != nullptr) {
      steps_counter->Increment();
      if (changed) effective_counter->Increment();
      if (facts_added > 0) {
        m->GetCounter("vada_transducer_kb_facts_added",
                      "KB facts added by Execute() (replace counts full)",
                      {{"transducer", chosen->name()}})
            ->Increment(facts_added);
      }
      if (facts_removed > 0) {
        m->GetCounter("vada_transducer_kb_facts_removed",
                      "KB facts removed by Execute() (replace counts full)",
                      {{"transducer", chosen->name()}})
            ->Increment(facts_removed);
      }
    }

    TraceEvent event;
    event.step = next_step_++;
    event.transducer = chosen->name();
    event.activity = chosen->activity();
    event.policy = policy_->name();
    for (Transducer* t : eligible) event.eligible.push_back(t->name());
    event.version_before = version_before;
    event.version_after = version_after;
    event.changed_kb = changed;
    event.facts_added = facts_added;
    event.facts_removed = facts_removed;
    event.start_ns = t0;
    event.duration_ms = static_cast<double>(t1 - t0) * 1e-6;
    event.attempts = attempts;
    event.rolled_back = rolled_back;
    if (!exec_status.ok()) event.note = exec_status.ToString();
    trace_.Add(std::move(event));

    if (exec_status.ok()) {
      RecordSuccess(chosen, kb, m);
    } else {
      RecordFailure(chosen, ExecuteError(*chosen, exec_status), attempts,
                    next_step_ - 1, kb, st, m);
      // Wait for new information (or a quarantine probe) before trying
      // this transducer again: otherwise its own failure facts would make
      // it immediately eligible in a failure loop.
      last_run_[chosen->name()] = LastRun{{}, {}, kb->global_version()};
    }
  }
  return finalize(Status::Internal(
      "orchestration exceeded max_steps (" +
      std::to_string(options_.max_steps) +
      "); a registered transducer is likely not idempotent"));
}

}  // namespace vada
