#ifndef VADA_TRANSDUCER_FAILURE_POLICY_H_
#define VADA_TRANSDUCER_FAILURE_POLICY_H_

#include <cstddef>
#include <functional>

namespace vada {

/// Fault-tolerance policy of the dynamic orchestrator (DESIGN.md §5d).
///
/// Every Execute() runs under a WriteGuard. A failed one is rolled back
/// and retried up to `max_attempts` times within the same orchestration
/// step, sleeping an exponential backoff between attempts (1, 2, 4, ...
/// ms, capped at 50 ms).
///
/// Quarantine (circuit breaker): after `quarantine_after` consecutive
/// step-level failures the transducer's circuit opens — it is excluded
/// from the eligible set and orchestration continues without it. After
/// 3 eligibility scans (or at a would-be fixpoint, while probe budget
/// remains) the circuit goes half-open and the transducer gets one trial
/// execution: success closes the circuit (it exits quarantine), failure
/// re-opens it.
///
/// Budgets: `run_budget_ms` bounds Run() wall clock — when exhausted the
/// session keeps its best-effort result and Run() returns OK with
/// stats.budget_exhausted set. `execute_timeout_ms` is a cooperative
/// per-execute soft deadline delivered via ExecutionContext.
///
/// Every failure is also asserted into the KB as
/// `sys_transducer_failure(transducer, code, attempt, step)` so Vadalog
/// dependency queries and scheduling policies can reason over failures.
struct FailurePolicy {
  /// Execute() attempts per orchestration step (>= 1).
  size_t max_attempts = 3;

  /// Consecutive step-level failures before the circuit opens.
  size_t quarantine_after = 3;
  /// Half-open probe budget per transducer per Run(), shared between
  /// cooldown promotion and fixpoint promotion (when nothing else is
  /// eligible, open circuits with budget left get one more trial before
  /// Run() settles). Probes are what let flaky transducers exit
  /// quarantine; the bound is what keeps Run() terminating when a
  /// transducer fails permanently. 0 = quarantine is final for the Run.
  size_t quarantine_max_probes = 3;

  /// Cooperative per-execute soft deadline (ExecutionContext); 0 = none.
  double execute_timeout_ms = 0.0;

  /// Wall-clock budget for one Run() call; 0 = unlimited.
  double run_budget_ms = 0.0;

  /// Backoff sleeper; nullptr = std::this_thread::sleep_for. Tests and
  /// benches inject a recorder to keep runs fast and deterministic.
  std::function<void(double /*ms*/)> sleep_ms;
};

}  // namespace vada

#endif  // VADA_TRANSDUCER_FAILURE_POLICY_H_
