// Master-to-slave transport abstraction (telemetry-fault tolerance layer).
//
// The seed reproduction called FChainSlave methods through raw in-process
// pointers, which bakes the assumption of a perfectly reliable monitoring
// plane into the master. Real clouds lose requests, time out, and take whole
// slaves offline; this module inserts an RPC-shaped seam between
// FChainMaster and FChainSlave so those failure modes become first-class:
//
//   FChainMaster ── SlaveEndpoint (interface) ──┬── LocalEndpoint  (in-process)
//     one analyzeBatch                          ├── SocketEndpoint (wire
//     per slave                                 │    protocol; socket_endpoint.h)
//                                               ├── FlakyEndpoint  (decorator
//                                               │    injecting drops/timeouts/
//                                               │    outages; flaky_endpoint.h)
//                                               └── HungEndpoint   (decorator:
//                                                    calls that never return;
//                                                    hung_endpoint.h)
//
// analyzeBatch is the one analysis RPC: the master sends each slave hosting
// the failing application a single batch, and analyze() is a one-element
// batch for single-component callers. Streaming ingest is batched the same
// way: the online monitor queues each slave's samples and sends one
// ingestBatch per slave per tick. Only the wire transport turns a batch into
// one request; everything in-process takes the per-sample ingest() default.
//
// Every request carries a deadline; every reply carries an explicit status
// so the master can retry, back off, and track per-slave health
// (runtime/health.h) instead of silently pretending full coverage.
//
// Layering note: these headers see fchain_core types (ComponentFinding,
// FChainSlave), but the link-level dependency points the other way —
// fchain_core links fchain_runtime, and everything here that touches core
// symbols is header-only so it compiles into its including library.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "fchain/slave.h"

namespace fchain::runtime {

/// Outcome of one request to a slave endpoint.
enum class EndpointStatus : std::uint8_t {
  Ok,           ///< reply received within the deadline
  Timeout,      ///< the slave answered too slowly (deadline exceeded)
  Dropped,      ///< request or response lost in transit
  Unavailable,  ///< slave process down / unreachable (fast failure)
};

inline std::string_view endpointStatusName(EndpointStatus status) {
  switch (status) {
    case EndpointStatus::Ok: return "ok";
    case EndpointStatus::Timeout: return "timeout";
    case EndpointStatus::Dropped: return "dropped";
    case EndpointStatus::Unavailable: return "unavailable";
  }
  return "unknown";
}

/// Single-component form of the analysis RPC: analyze one component's
/// look-back window before `violation_time`. SlaveEndpoint::analyze sends it
/// as a one-element AnalyzeBatchRequest.
struct AnalyzeRequest {
  ComponentId component = kNoComponent;
  TimeSec violation_time = 0;
  /// Per-request deadline in (simulated) milliseconds; 0 disables it.
  double deadline_ms = 0.0;
};

struct AnalyzeReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  /// Present iff status == Ok *and* the component shows an abnormal change.
  std::optional<core::ComponentFinding> finding;
  /// Simulated service latency of this request.
  double latency_ms = 0.0;
};

/// Batched master RPC: one request per *slave* covering every component it
/// monitors for this localization, instead of one request per component.
/// This is what the master's localization fans out — a slave hosting k VMs
/// costs one transport round-trip, not k.
struct AnalyzeBatchRequest {
  std::vector<ComponentId> components;
  TimeSec violation_time = 0;
  /// Per-request deadline in (simulated) milliseconds; 0 disables it.
  double deadline_ms = 0.0;
};

/// Batch replies are all-or-nothing at the transport level: the batch is a
/// single request, so a drop/timeout/outage loses every component in it
/// (status != Ok, findings empty) and the master retries the batch.
struct AnalyzeBatchReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  /// Aligned with AnalyzeBatchRequest::components; a slot is nullopt when
  /// the component is unknown to the slave or shows no abnormal change.
  std::vector<std::optional<core::ComponentFinding>> findings;
  /// Simulated service latency of this request.
  double latency_ms = 0.0;
};

/// Reply to the component-discovery RPC issued at registration time.
struct ComponentListReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  std::vector<ComponentId> components;
};

/// Streaming-ingest RPC (online monitoring runtime): one second of samples
/// for one component, pushed master-side -> slave-side. Unlike the analysis
/// RPCs this is fire-and-forget with no retries — a lost sample is repaired
/// by the slave's gap-fill on the next arrival, and re-sending a stale
/// second would only hit the duplicate path.
struct IngestRequest {
  ComponentId component = kNoComponent;
  TimeSec t = 0;
  std::array<double, kMetricCount> sample{};
  /// Per-request deadline in (simulated) milliseconds; 0 disables it.
  double deadline_ms = 0.0;
};

/// One component-second inside an IngestBatchRequest.
struct IngestSample {
  ComponentId component = kNoComponent;
  TimeSec t = 0;
  std::array<double, kMetricCount> sample{};
};

/// Batched streaming ingest: every queued sample bound for one slave, in
/// arrival order. The online monitor sends one per slave per tick, so a
/// slave hosting k VMs costs one transport round-trip per second, not k.
struct IngestBatchRequest {
  std::vector<IngestSample> samples;
  /// Per-request deadline in (simulated) milliseconds; 0 disables it.
  double deadline_ms = 0.0;
};

struct IngestReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  /// Simulated service latency of this request.
  double latency_ms = 0.0;
};

/// Transport-level handle to one FChain slave. Implementations must be
/// deterministic for reproducible experiments (seeded, no wall clock).
class SlaveEndpoint {
 public:
  virtual ~SlaveEndpoint() = default;

  /// Host the slave runs on (advisory; used for display and outage mapping).
  virtual HostId host() const = 0;

  /// Lists the components this slave monitors.
  virtual ComponentListReply listComponents() = 0;

  /// Runs the abnormal-change analysis for a batch of components in one
  /// round-trip — the one analysis RPC every transport implements and the
  /// master fans out, one request per slave.
  virtual AnalyzeBatchReply analyzeBatch(
      const AnalyzeBatchRequest& request) = 0;

  /// Runs the abnormal-change analysis for one component: a one-element
  /// batch. Virtual only so decorators can observe single calls.
  virtual AnalyzeReply analyze(const AnalyzeRequest& request) {
    AnalyzeBatchRequest batch;
    batch.components = {request.component};
    batch.violation_time = request.violation_time;
    batch.deadline_ms = request.deadline_ms;
    AnalyzeBatchReply batched = analyzeBatch(batch);
    AnalyzeReply reply;
    reply.status = batched.status;
    reply.latency_ms = batched.latency_ms;
    if (batched.status == EndpointStatus::Ok && batched.findings.size() == 1) {
      reply.finding = std::move(batched.findings[0]);
    }
    return reply;
  }

  /// Pushes one second of samples for one component to the slave (online
  /// monitoring runtime). The default rejects the request so analysis-only
  /// transports predating the streaming protocol stay valid implementations.
  virtual IngestReply ingest(const IngestRequest& request) {
    (void)request;
    return {EndpointStatus::Unavailable, 0.0};
  }

  /// Pushes a batch of samples, applied in order; returns how many were
  /// lost. The default sends each sample through ingest(), so in-process
  /// transports and chaos decorators keep one call (and one fate roll) per
  /// sample. A wire transport overrides it with a single round-trip, where
  /// a lost request loses the whole batch.
  virtual std::size_t ingestBatch(const IngestBatchRequest& batch) {
    std::size_t lost = 0;
    IngestRequest request;
    request.deadline_ms = batch.deadline_ms;
    for (const IngestSample& sample : batch.samples) {
      request.component = sample.component;
      request.t = sample.t;
      request.sample = sample.sample;
      if (ingest(request).status != EndpointStatus::Ok) ++lost;
    }
    return lost;
  }
};

/// In-process endpoint: wraps a raw FChainSlave pointer and always succeeds
/// with zero latency — the seed reproduction's behaviour, now explicit. The
/// slave must outlive the endpoint.
class LocalEndpoint final : public SlaveEndpoint {
 public:
  explicit LocalEndpoint(core::FChainSlave* slave) : slave_(slave) {}

  HostId host() const override { return slave_->host(); }

  ComponentListReply listComponents() override {
    return {EndpointStatus::Ok, slave_->components()};
  }

  AnalyzeBatchReply analyzeBatch(const AnalyzeBatchRequest& request) override {
    AnalyzeBatchReply reply;
    reply.status = EndpointStatus::Ok;
    reply.findings =
        slave_->analyzeBatch(request.components, request.violation_time);
    return reply;
  }

  IngestReply ingest(const IngestRequest& request) override {
    slave_->ingestAt(request.component, request.t, request.sample);
    return {EndpointStatus::Ok, 0.0};
  }

 private:
  core::FChainSlave* slave_;
};

}  // namespace fchain::runtime
