/// \file retry.hpp
/// Run-level recovery for the factorization backends: classify a failed
/// run as transient (fault-injected or environmental — worth retrying) or
/// deterministic (a bug — rethrow immediately), and re-run with capped
/// exponential backoff.
///
/// The contract chaos testing enforces (tools/confscope --chaos,
/// tests/test_faults.cpp): a retried run that succeeds produces the *same*
/// result a fault-free run produces — bit-identical CommVolume and passing
/// residual — because injected delays and stalls never change the
/// communication schedule, and detected corruption aborts the attempt
/// before a wrong value can propagate. Each attempt runs over a fresh
/// Network (every backend constructs its own), so no fabric state leaks
/// between attempts.
#pragma once

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "simnet/faults.hpp"

namespace conflux::factor {

/// How run_with_retry retries.
struct RetryPolicy {
  int max_attempts = 3;      ///< total tries, including the first
  double backoff_s = 0.01;   ///< first inter-attempt backoff
  double backoff_max_s = 1.0;  ///< cap for the exponential growth
};

/// True when `e` is the kind of failure a retry can plausibly outrun: a
/// receive deadline expiry (but NOT a detected deadlock — that is a
/// deterministic program bug and would recur), a detected payload
/// corruption, or a job aborted by a peer rank's transient failure.
/// ContractViolation and everything else classify as deterministic.
[[nodiscard]] bool is_transient_failure(const std::exception& e);

/// Run `run()` (returning a FactorResult or derived type) up to
/// `policy.max_attempts` times. Transient failures back off exponentially
/// (capped) and retry — the backoff is the simulated machine's recovery
/// latency, recorded in FactorResult::backoff_seconds and never slept;
/// deterministic failures and the final attempt's failure rethrow. `plan`, when given, is advanced via next_attempt()
/// between tries so the retry sees a re-randomized fault schedule — the
/// mechanism that lets a run recover from an injected fault at all.
/// On success the result's attempts / failure_causes / backoff_seconds
/// fields record the recovery history.
template <typename Run>
auto run_with_retry(Run&& run, const RetryPolicy& policy = {},
                    simnet::FaultPlan* plan = nullptr) -> decltype(run()) {
  std::vector<std::string> causes;
  double backoff_total = 0;
  for (int attempt = 1;; ++attempt) {
    try {
      auto result = run();
      result.attempts = attempt;
      result.failure_causes = std::move(causes);
      result.backoff_seconds = backoff_total;
      return result;
    } catch (const std::exception& e) {
      if (attempt >= policy.max_attempts || !is_transient_failure(e)) throw;
      causes.push_back(e.what());
      if (plan != nullptr) plan->next_attempt();
      const double delay =
          std::min(policy.backoff_max_s,
                   policy.backoff_s * std::ldexp(1.0, attempt - 1));
      backoff_total += delay;
    }
  }
}

}  // namespace conflux::factor
