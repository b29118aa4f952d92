// FChain master (paper Fig. 1): runs on a dedicated server. When the SLO
// monitor reports a performance anomaly at time tv, the master fans the
// analysis request out to the slaves hosting the failing application's VMs,
// collects their abnormal-change findings, and runs integrated pinpointing
// against the (offline-discovered) dependency graph. The optional online
// validation pass that sheds false alarms (validation.h) runs on the
// master's result; core::diagnoseIncident (incident.h) chains the two.
//
// Slaves are reached through the runtime::SlaveEndpoint seam, so the master
// survives an unreliable monitoring plane: every analysis request carries a
// deadline and is retried with exponential backoff + deterministic jitter
// (runtime::RetryPolicy), each endpoint's health is tracked across requests
// (healthy -> degraded -> down; down endpoints get a single probe instead of
// the full retry budget), and localization proceeds from whatever findings
// arrive — PinpointResult::coverage reports how much of the application was
// actually analyzed instead of silently pretending full coverage.
//
// Localization groups the application's components by their slave and
// sends each slave ONE batched request covering all its components
// (runtime::AnalyzeBatchRequest). The per-slave batch jobs run inline on the
// caller's thread, in first-appearance order (worker threads = 0), or
// concurrently on a fixed-size runtime::WorkerPool (worker threads >= 1).
// A per-endpoint mutex serializes requests to any one endpoint
// (FlakyEndpoint's request counter and health accounting stay exact),
// results merge deterministically in caller component order, and the
// backoff schedule is seeded from the batch's routing, never from the
// schedule — so every endpoint sees the same request sequence and the
// PinpointResult is bit-identical at any thread count (with the wall-clock
// watchdog off).
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "fchain/pinpoint.h"
#include "fchain/slave.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "runtime/breaker.h"
#include "runtime/endpoint.h"
#include "runtime/health.h"
#include "runtime/watchdog.h"

namespace fchain::runtime {
class WorkerPool;
}  // namespace fchain::runtime

namespace fchain::core {

/// Transport bookkeeping accumulated across localize() calls. A request is
/// one transport round-trip: one per-slave *batch* attempt.
///
/// This struct is now a *view*: the authoritative values live in the
/// master's obs::MetricRegistry (counters "master.requests" / ".retries" /
/// ".failures" and gauge "master.backoff_ms"); runtimeStats() adapts the
/// registry back into this shape for existing callers.
struct MasterRuntimeStats {
  std::size_t requests = 0;   ///< analysis attempts issued (incl. retries)
  std::size_t retries = 0;    ///< attempts beyond the first per request
  std::size_t failures = 0;   ///< components whose retry budget ran out
  double simulated_backoff_ms = 0.0;  ///< total backoff the schedule imposed
  // Watchdog bookkeeping (all zero unless setWatchdog() enabled it).
  std::size_t watchdog_trips = 0;   ///< endpoint calls abandoned on timeout
  std::size_t breaker_opens = 0;    ///< circuit breakers opened by trips
  std::size_t deadline_skips = 0;   ///< components shed by the deadline
};

class FChainMaster {
 public:
  explicit FChainMaster(FChainConfig config = {},
                        runtime::RetryPolicy retry = {})
      : config_(config), retry_(retry), pinpointer_(config) {}
  ~FChainMaster();

  /// Registers an in-process slave (wrapped in a runtime::LocalEndpoint);
  /// the data stays on the slave's host and the slave must outlive the
  /// master. Register the slave's components first: the routing table is
  /// built here. Throws std::invalid_argument when the same slave is
  /// registered twice or a component is already claimed by another slave.
  void registerSlave(FChainSlave* slave);

  /// Registers a slave behind an arbitrary transport. The component list is
  /// discovered via listComponents(), retried per the retry policy — with
  /// the same backoff schedule, health accounting, and stats counting as
  /// the localization path, so discovery storms against a flaky slave are
  /// visible, paced, and carried into the endpoint's initial health.
  /// Throws std::runtime_error when discovery keeps failing and
  /// std::invalid_argument on duplicate endpoints / component claims.
  void registerEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint);

  /// Same, with the component routing known up front (deployment manifest);
  /// skips the discovery RPC entirely.
  void registerEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                        const std::vector<ComponentId>& components);

  /// Supplies the offline-discovered dependency graph (may be empty — e.g.
  /// for stream processing systems, where discovery finds nothing).
  void setDependencies(netdep::DependencyGraph graph) {
    dependencies_ = std::move(graph);
  }

  /// Enables wall-time bounding of localization (see runtime/watchdog.h):
  /// per-call watchdog, whole-localize deadline, and per-endpoint circuit
  /// breakers that shed repeatedly hanging endpoints into degraded-mode
  /// coverage. Off by default — with the zero config, localization behaviour
  /// is bit-identical to a master without a watchdog. Resets every
  /// endpoint's breaker to the new thresholds.
  void setWatchdog(runtime::WatchdogConfig config);

  /// Attaches the master's incident journal (nullptr detaches; not owned,
  /// must outlive the master). Every localize() records its input to the
  /// journal before fan-out and marks it done afterwards, so a master crash
  /// mid-localization leaves a pending entry that rerunPendingIncidents()
  /// (fchain/recovery.h) can re-run after restart.
  void setIncidentJournal(persist::IncidentJournal* journal) {
    incident_journal_ = journal;
  }

  /// Sizes the localization fan-out pool. 0 (the default) runs the
  /// per-slave batch jobs inline on the caller's thread, one after another;
  /// n >= 1 runs them on n pool threads. The verdict is the same either way.
  /// The pool is built here, so concurrent localize() calls share it; do not
  /// call this while a localize() is running.
  void setWorkerThreads(int threads);

  /// Health of every registered endpoint, in registration order.
  std::vector<runtime::HealthState> endpointHealth() const;

  /// Thin adapter over the metric registry: reads the transport counters
  /// back into the legacy struct. Values are identical to the registry
  /// snapshot's, by construction.
  MasterRuntimeStats runtimeStats() const;

  /// This master's metric registry. Registry metric names:
  ///   master.requests / master.retries / master.failures   (counters,
  ///                           lifetime totals — never reset)
  ///   master.watchdog_trips  (counter: endpoint calls abandoned on timeout)
  ///   master.breaker_opens   (counter: circuit breakers opened)
  ///   master.deadline_skips  (counter: components shed by the deadline)
  ///   master.endpoint_state.healthy / .degraded / .down
  ///                          (counters: health-state *transitions* into
  ///                           each state, across all endpoints)
  ///   master.backoff_ms      (gauge: accumulated simulated backoff)
  ///   master.pool_pending    (gauge: worker-pool queue depth after the
  ///                           fan-out drains — 0 unless something leaked)
  ///   master.localize_ms     (histogram: end-to-end localize wall-clock)
  obs::MetricRegistry& metrics() { return registry_; }
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// Localizes the fault for the application made of `components`. Degraded
  /// mode: components whose slave never answers are reported in
  /// PinpointResult::unanalyzed and the result's coverage drops below 1.
  /// Mutates transport bookkeeping (endpoint health, runtime stats) — the
  /// seed's `const localize` quietly did the same through mutable members.
  /// Safe to call from multiple threads concurrently: per-endpoint mutexes
  /// serialize transport access and stats land in lock-free registry
  /// atomics. When the global obs tracer is enabled, the call emits
  /// master / worker-pool / slave / signal-kernel spans.
  PinpointResult localize(const std::vector<ComponentId>& components,
                          TimeSec violation_time);

 private:
  struct Endpoint {
    std::shared_ptr<runtime::SlaveEndpoint> endpoint;
    runtime::EndpointHealth health;
    /// Serializes requests to this endpoint across pool workers and across
    /// concurrent localize() calls. shared_ptr (not unique_ptr) on purpose:
    /// a watchdog sacrificial thread locks it *inside* the thread and may
    /// outlive any given localize() call — capturing the shared_ptr by
    /// value keeps the mutex alive for the abandoned call.
    std::shared_ptr<std::mutex> lock;
    /// Opens after repeated watchdog trips; see runtime/breaker.h.
    runtime::CircuitBreaker breaker;
  };

  /// Wall-clock cutoff for one localize() (nullopt = no deadline).
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// One per-slave unit of the fan-out.
  struct BatchJob {
    std::size_t endpoint_index = 0;
    std::vector<ComponentId> ids;  ///< caller order, this slave's subset
    std::vector<std::optional<ComponentFinding>> findings;  ///< aligned
    bool answered = false;
    MasterRuntimeStats stats;  ///< merged by the coordinator afterwards
  };

  /// Adds the endpoint under the given component routes (shared tail of
  /// both register paths); `health` carries any discovery-time history.
  void addEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                   const std::vector<ComponentId>& components,
                   runtime::EndpointHealth health);

  /// Groups components into per-slave batch jobs, runs them (inline or on
  /// the pool) and merges the findings in caller order.
  PinpointResult localizeBatches(const std::vector<ComponentId>& components,
                                 TimeSec violation_time, Deadline deadline);
  /// Issues one batch (with retries) to the job's endpoint, on the caller's
  /// thread or a pool worker. Without the watchdog it holds the endpoint's
  /// mutex for the whole retry sequence; with it, each attempt locks inside
  /// the sacrificial thread.
  void runBatchJob(BatchJob& job, TimeSec violation_time, Deadline deadline);
  void mergeStats(const MasterRuntimeStats& delta);
  /// Records a request outcome on the endpoint's health and bumps the
  /// endpoint_state transition counter when the state changed.
  void recordOutcome(Endpoint& ep, bool ok);

  FChainConfig config_;
  runtime::RetryPolicy retry_;
  IntegratedPinpointer pinpointer_;
  std::vector<Endpoint> endpoints_;
  /// Registry-backed runtime metrics. The instrument references are
  /// registered once here (registry_ must be declared first); hot-path
  /// updates are lock-free atomics, so no stats mutex is needed anymore.
  obs::MetricRegistry registry_;
  obs::Counter& metric_requests_ = registry_.counter("master.requests");
  obs::Counter& metric_retries_ = registry_.counter("master.retries");
  obs::Counter& metric_failures_ = registry_.counter("master.failures");
  obs::Counter& metric_watchdog_trips_ =
      registry_.counter("master.watchdog_trips");
  obs::Counter& metric_breaker_opens_ =
      registry_.counter("master.breaker_opens");
  obs::Counter& metric_deadline_skips_ =
      registry_.counter("master.deadline_skips");
  obs::Counter& metric_state_healthy_ =
      registry_.counter("master.endpoint_state.healthy");
  obs::Counter& metric_state_degraded_ =
      registry_.counter("master.endpoint_state.degraded");
  obs::Counter& metric_state_down_ =
      registry_.counter("master.endpoint_state.down");
  obs::Gauge& metric_backoff_ms_ = registry_.gauge("master.backoff_ms");
  obs::Gauge& metric_pool_pending_ = registry_.gauge("master.pool_pending");
  obs::Histogram& metric_localize_ms_ = registry_.histogram(
      "master.localize_ms",
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
       2000.0, 5000.0, 10000.0});
  std::map<ComponentId, std::size_t> routes_;  ///< component -> endpoint idx
  std::set<const void*> registered_;  ///< raw identity of slaves/endpoints
  netdep::DependencyGraph dependencies_;
  std::unique_ptr<runtime::WorkerPool> pool_;  ///< null = run jobs inline
  runtime::WatchdogConfig watchdog_;  ///< zeros = watchdog off
  persist::IncidentJournal* incident_journal_ = nullptr;  ///< not owned
};

}  // namespace fchain::core
