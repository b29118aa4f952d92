// Per-endpoint health tracking and retry policy for the FChain master.
//
// The master treats each slave as healthy until requests start failing:
// consecutive failures demote it to degraded and then to down (presumed
// dead — probed with a single attempt instead of the full retry budget so a
// fleet-wide blackout cannot stall localization). One success fully
// restores the endpoint: FChain's analysis requests are idempotent reads,
// so there is no reason to distrust a slave that just answered.
//
// Retries use capped exponential backoff with deterministic jitter
// (seeded, no wall clock) so reproducibility survives the retry path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/rng.h"

namespace fchain::runtime {

enum class HealthState : std::uint8_t {
  Healthy,   ///< answering normally
  Degraded,  ///< recent consecutive failures; still tried with retries
  Down,      ///< presumed dead; probed with a single attempt per localize
};

/// Master-side request policy: attempts per analysis request plus the
/// backoff schedule between them.
struct RetryPolicy {
  int max_attempts = 3;             ///< total tries per request (>= 1)
  double request_deadline_ms = 200.0;  ///< per-request deadline (0 = none)
  double base_backoff_ms = 50.0;    ///< delay before the first retry
  double backoff_multiplier = 2.0;  ///< growth per further retry
  double max_backoff_ms = 1000.0;   ///< cap on any single delay
  double jitter_fraction = 0.2;     ///< uniform +-fraction around the delay
  /// Consecutive failures before an endpoint is considered degraded / down.
  int degraded_after = 1;
  int down_after = 3;
};

/// Backoff delay before retry `attempt` (0-based: the delay after the first
/// failure is attempt 0). Deterministic in (policy, attempt, salt).
inline double retryDelayMs(const RetryPolicy& policy, int attempt,
                           std::uint64_t salt) {
  double delay = policy.base_backoff_ms;
  for (int i = 0; i < attempt; ++i) delay *= policy.backoff_multiplier;
  delay = std::min(delay, policy.max_backoff_ms);
  if (policy.jitter_fraction > 0.0) {
    Rng rng(mixSeed(0x6a177e12u, salt, static_cast<std::uint64_t>(attempt)));
    delay *= rng.uniform(1.0 - policy.jitter_fraction,
                         1.0 + policy.jitter_fraction);
  }
  return std::max(0.0, delay);
}

/// Consecutive-failure health tracker for one endpoint. Thread-safe: the
/// parallel localization engine records outcomes from worker threads while
/// endpointHealth() may be read from the coordinator, so the counters are
/// atomics. (Per-endpoint request *ordering* is enforced by the master's
/// per-endpoint mutex, not here.)
class EndpointHealth {
 public:
  EndpointHealth(int degraded_after = 1, int down_after = 3)
      : degraded_after_(std::max(1, degraded_after)),
        down_after_(std::max(degraded_after_, down_after)) {}

  EndpointHealth(const EndpointHealth& other)
      : degraded_after_(other.degraded_after_),
        down_after_(other.down_after_),
        consecutive_failures_(other.consecutiveFailures()),
        total_failures_(other.totalFailures()),
        total_successes_(other.totalSuccesses()) {}

  EndpointHealth& operator=(const EndpointHealth& other) {
    degraded_after_ = other.degraded_after_;
    down_after_ = other.down_after_;
    consecutive_failures_.store(other.consecutiveFailures(),
                                std::memory_order_relaxed);
    total_failures_.store(other.totalFailures(), std::memory_order_relaxed);
    total_successes_.store(other.totalSuccesses(), std::memory_order_relaxed);
    return *this;
  }

  void recordSuccess() {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    total_successes_.fetch_add(1, std::memory_order_relaxed);
  }

  void recordFailure() {
    consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
    total_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  HealthState state() const {
    const int failures = consecutiveFailures();
    if (failures >= down_after_) return HealthState::Down;
    if (failures >= degraded_after_) return HealthState::Degraded;
    return HealthState::Healthy;
  }

  int consecutiveFailures() const {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }
  std::size_t totalFailures() const {
    return total_failures_.load(std::memory_order_relaxed);
  }
  std::size_t totalSuccesses() const {
    return total_successes_.load(std::memory_order_relaxed);
  }

 private:
  int degraded_after_;
  int down_after_;
  std::atomic<int> consecutive_failures_{0};
  std::atomic<std::size_t> total_failures_{0};
  std::atomic<std::size_t> total_successes_{0};
};

}  // namespace fchain::runtime
