// Fault-injecting decorator around any SlaveEndpoint.
//
// Reproduces the monitoring-plane failure modes the telemetry-fault
// tolerance layer must survive: lost requests, slow replies that blow the
// deadline, the first-N-requests cold-start failures of a restarting agent,
// scheduled slave blackout windows, and a hard down switch. All randomness
// is seeded per request counter, so a run is exactly reproducible.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/endpoint.h"

namespace fchain::runtime {

struct FlakyConfig {
  /// Probability that a request (or its response) vanishes -> Dropped.
  double drop_probability = 0.0;
  /// Probability that the slave stalls past any deadline -> Timeout.
  double timeout_probability = 0.0;
  /// Probability that the reply is cut off mid-frame — the peer (or its
  /// network path) died while sending, the partial-frame signature a real
  /// socket reports as a torn frame -> Dropped (retryable; same taxonomy as
  /// SocketEndpoint's torn-frame handling). Distinguished from
  /// drop_probability in bookkeeping only: tornReplies() counts these.
  double torn_reply_probability = 0.0;
  /// Simulated service latency; a reply whose drawn latency exceeds the
  /// request deadline is reported as a Timeout by the endpoint itself.
  double latency_mean_ms = 5.0;
  double latency_jitter_ms = 0.0;
  /// Fail the first N requests outright (agent cold start) -> Unavailable.
  std::size_t fail_first = 0;
  /// Blackout windows [from, to) in simulation seconds, matched against the
  /// request's violation_time (the master's notion of "now") -> Unavailable.
  std::vector<std::pair<TimeSec, TimeSec>> outage_windows;
  std::uint64_t seed = 0;
};

class FlakyEndpoint final : public SlaveEndpoint {
 public:
  FlakyEndpoint(std::shared_ptr<SlaveEndpoint> inner, FlakyConfig config);

  HostId host() const override { return inner_->host(); }
  ComponentListReply listComponents() override;
  /// A batch is one request on the wire: one fate roll (one request-counter
  /// tick) covers every component in it. Callers must serialize requests to
  /// one FlakyEndpoint (the master's per-endpoint mutex does); the counter
  /// itself is not atomic.
  AnalyzeBatchReply analyzeBatch(const AnalyzeBatchRequest& request) override;
  /// One fate roll per sample; outage windows match against the sample's own
  /// timestamp (streaming has no violation_time yet).
  IngestReply ingest(const IngestRequest& request) override;

  /// Requests whose reply was truncated mid-frame (torn_reply_probability).
  std::size_t tornReplies() const { return torn_replies_; }

 private:
  /// Drops/timeouts/outages for the request numbered `index` at sim time
  /// `now`; Ok (with a drawn latency) when the request survives.
  EndpointStatus roll(std::uint64_t index, TimeSec now, double deadline_ms,
                      double* latency_ms) const;

  std::shared_ptr<SlaveEndpoint> inner_;
  FlakyConfig config_;
  std::uint64_t requests_ = 0;
  /// Counted inside the (logically const) fate roll.
  mutable std::size_t torn_replies_ = 0;
};

}  // namespace fchain::runtime
