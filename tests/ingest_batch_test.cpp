// Batched streaming ingest: the online monitor queues each slave's samples
// and sends one ingestBatch per slave per tick (online/monitor.h).
//
// Pinned here:
//   - over unix-socket SlaveServices a replay of complete ticks costs exactly
//     one ingest request frame per slave per tick, and the slaves it feeds
//     analyze bit-identically to in-process slaves fed sample by sample;
//   - a batch lost to an unavailable slave counts every sample it carried
//     in online.ingest_failures;
//   - a tick with a dropped sample still reaches every slave before a
//     synchronous fire, on one monitor and across fleet shards.
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/slave.h"
#include "fchain/slave_service.h"
#include "fleet/monitor.h"
#include "obs/metrics.h"
#include "online/monitor.h"
#include "runtime/socket_endpoint.h"

namespace fchain::online {
namespace {

std::array<double, kMetricCount> sampleAt(TimeSec t, ComponentId id) {
  std::array<double, kMetricCount> s{};
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    s[m] = 10.0 + static_cast<double>(id) +
           std::sin(static_cast<double>(t) * 0.1 + static_cast<double>(m));
  }
  // A level shift on component 4 late in the stream, so the last-tick
  // analysis has a finding to carry over the wire.
  if (id == 4 && t >= 130) s[0] += 40.0;
  return s;
}

/// Bit-exact rendering of a batch analysis (doubles as their bit patterns).
std::string digest(
    const std::vector<std::optional<core::ComponentFinding>>& findings) {
  std::ostringstream out;
  out << std::hex;
  for (const auto& finding : findings) {
    if (!finding.has_value()) {
      out << "-;";
      continue;
    }
    out << finding->component << '@' << finding->onset << '/'
        << static_cast<int>(finding->trend) << '[';
    for (const core::MetricFinding& m : finding->metrics) {
      out << static_cast<int>(m.metric) << ':' << m.onset << ':'
          << m.change_point << ':' << static_cast<int>(m.trend) << ':'
          << std::bit_cast<std::uint64_t>(m.prediction_error) << ':'
          << std::bit_cast<std::uint64_t>(m.expected_error) << ',';
    }
    out << "];";
  }
  return out.str();
}

std::string socketPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".sock";
}

TEST(IngestBatch, OneFramePerSlavePerTickOverUnixSockets) {
  constexpr std::size_t kSlaves = 3;
  constexpr ComponentId kComponents = 9;
  constexpr TimeSec kTicks = 160;

  // Served slaves (fed through the monitor) and in-process twins (fed one
  // sample at a time); component id % kSlaves picks the slave.
  std::vector<std::unique_ptr<core::FChainSlave>> served;
  std::vector<std::unique_ptr<core::FChainSlave>> twins;
  std::vector<std::vector<ComponentId>> owned(kSlaves);
  for (std::size_t k = 0; k < kSlaves; ++k) {
    served.push_back(
        std::make_unique<core::FChainSlave>(static_cast<HostId>(k)));
    twins.push_back(
        std::make_unique<core::FChainSlave>(static_cast<HostId>(k)));
  }
  for (ComponentId id = 0; id < kComponents; ++id) {
    served[id % kSlaves]->addComponent(id, 0);
    twins[id % kSlaves]->addComponent(id, 0);
    owned[id % kSlaves].push_back(id);
  }

  obs::MetricRegistry client_registry;
  std::vector<std::unique_ptr<core::SlaveService>> services;
  std::vector<std::shared_ptr<runtime::SocketEndpoint>> endpoints;
  OnlineMonitor monitor;
  for (std::size_t k = 0; k < kSlaves; ++k) {
    core::SlaveServiceConfig service_config;
    service_config.listen = runtime::SocketAddress::unixPath(
        socketPath("ingest_batch_" + std::to_string(k)));
    services.push_back(
        std::make_unique<core::SlaveService>(*served[k], service_config));
    services.back()->start();
    runtime::SocketEndpointConfig endpoint_config;
    endpoint_config.address = services.back()->address();
    endpoint_config.registry = &client_registry;
    endpoints.push_back(
        std::make_shared<runtime::SocketEndpoint>(endpoint_config));
    ASSERT_EQ(endpoints.back()->listComponents().status,
              runtime::EndpointStatus::Ok);
    monitor.addEndpoint(endpoints.back(), owned[k]);
  }

  obs::Counter& frames_tx = client_registry.counter("runtime.socket.frames_tx");
  const std::uint64_t frames_before = frames_tx.value();
  for (TimeSec t = 0; t < kTicks; ++t) {
    // A rotating arrival order interleaves the slaves within each tick.
    for (ComponentId i = 0; i < kComponents; ++i) {
      const ComponentId id =
          static_cast<ComponentId>((i * 4 + static_cast<ComponentId>(t)) %
                                   kComponents);
      monitor.ingest(id, t, sampleAt(t, id));
      twins[id % kSlaves]->ingestAt(id, t, sampleAt(t, id));
    }
  }
  EXPECT_EQ(frames_tx.value() - frames_before,
            kSlaves * static_cast<std::uint64_t>(kTicks));
  EXPECT_EQ(monitor.metrics().counter("online.ingest_failures").value(), 0u);

  // Complete ticks went out inside ingest(): no flush is needed before the
  // slaves are read.
  const TimeSec last = kTicks - 1;
  bool any_finding = false;
  for (std::size_t k = 0; k < kSlaves; ++k) {
    runtime::AnalyzeBatchRequest request;
    request.components = owned[k];
    request.violation_time = last;
    const runtime::AnalyzeBatchReply over_wire =
        endpoints[k]->analyzeBatch(request);
    ASSERT_EQ(over_wire.status, runtime::EndpointStatus::Ok);
    const auto in_process = twins[k]->analyzeBatch(owned[k], last);
    EXPECT_EQ(digest(over_wire.findings), digest(in_process)) << "slave " << k;
    for (const auto& finding : in_process) any_finding |= finding.has_value();
  }
  EXPECT_TRUE(any_finding) << "the stream should carry a change to compare";
  for (auto& service : services) service->stop();
}

TEST(IngestBatch, LostBatchCountsEverySample) {
  // Nothing listens at this path: every connect is refused (Unavailable).
  runtime::SocketEndpointConfig endpoint_config;
  endpoint_config.address =
      runtime::SocketAddress::unixPath(socketPath("ingest_batch_nobody"));
  endpoint_config.reconnect.max_attempts = 1;
  obs::MetricRegistry client_registry;
  endpoint_config.registry = &client_registry;
  auto endpoint = std::make_shared<runtime::SocketEndpoint>(endpoint_config);

  OnlineMonitor monitor;
  monitor.addEndpoint(endpoint, {0, 1, 2});
  obs::Counter& failures = monitor.metrics().counter("online.ingest_failures");
  for (ComponentId id = 0; id < 3; ++id) monitor.ingest(id, 0, sampleAt(0, id));
  EXPECT_EQ(failures.value(), 3u);  // one complete tick, one lost batch

  // A partial tick goes out on flush and is lost whole too.
  monitor.ingest(0, 1, sampleAt(1, 0));
  monitor.ingest(2, 1, sampleAt(1, 2));
  EXPECT_EQ(failures.value(), 3u);
  monitor.flushIngest();
  EXPECT_EQ(failures.value(), 5u);
  EXPECT_EQ(monitor.metrics().counter("online.ingest_samples").value(), 5u);
  EXPECT_EQ(client_registry.counter("runtime.socket.frames_tx").value(), 0u);
}

/// Streams 100 ticks of healthy signal, then violating signal until an
/// incident fires, dropping `dropped`'s sample on every tick from the first
/// violating one. Returns whether an incident fired synchronously.
template <typename Monitor>
bool streamUntilFire(Monitor& monitor, std::size_t app,
                     const std::vector<ComponentId>& components,
                     ComponentId dropped) {
  for (TimeSec t = 0; t < 200; ++t) {
    const bool violating = t >= 100;
    for (ComponentId id : components) {
      if (violating && id == dropped) continue;
      monitor.ingest(id, t, sampleAt(t, id));
    }
    if (monitor.observeLatency(app, t, violating ? 0.5 : 0.05)) return true;
    monitor.pump();
  }
  return false;
}

AppSpec latencyApp(std::string name, std::vector<ComponentId> components) {
  AppSpec spec;
  spec.name = std::move(name);
  spec.components = std::move(components);
  spec.slo.kind = SloSpec::Kind::Latency;
  spec.slo.latency_threshold_sec = 0.1;
  spec.slo.sustain_sec = 3;
  return spec;
}

TEST(IngestBatch, DroppedSampleDoesNotHoldBackTheRestOfTheTick) {
  core::FChainSlave front(0);
  core::FChainSlave back(1);
  front.addComponent(0, 0);
  front.addComponent(1, 0);
  back.addComponent(2, 0);
  back.addComponent(3, 0);
  OnlineMonitor monitor;
  monitor.addSlave(&front);
  monitor.addSlave(&back);
  const std::size_t app = monitor.addApplication(latencyApp("app", {0, 1, 2, 3}));

  // Component 1 goes silent, so the front slave's batch never fills; the
  // synchronous fire must still see component 0's sample of the latch tick.
  bool checked = false;
  monitor.onIncident([&](const OnlineIncident& incident) {
    checked = true;
    EXPECT_EQ(front.seriesOf(0)->endTime(), incident.triggered_at + 1);
    EXPECT_EQ(back.seriesOf(2)->endTime(), incident.triggered_at + 1);
    EXPECT_EQ(front.seriesOf(1)->endTime(), 100);
  });
  ASSERT_TRUE(streamUntilFire(monitor, app, {0, 1, 2, 3}, /*dropped=*/1));
  EXPECT_TRUE(checked);
}

TEST(IngestBatch, FleetFlushesEveryShardBeforeASynchronousFire) {
  fleet::FleetMonitorConfig config;
  config.shards = 2;
  fleet::FleetMonitor monitor(config);
  const std::string name = "fleet-app";
  const fleet::ShardId app_shard = monitor.fleet().ring().ownerOfApp(name);

  // Two components owned by the *other* shard, hosted on one slave: its
  // ingest slice lives on a shard that never observes this app.
  std::vector<ComponentId> ids;
  for (ComponentId id = 0; ids.size() < 2; ++id) {
    if (monitor.fleet().ownerOf(id) != app_shard) ids.push_back(id);
  }
  core::FChainSlave slave(0);
  for (ComponentId id : ids) slave.addComponent(id, 0);
  monitor.addSlave(&slave);
  const std::size_t app = monitor.addApplication(latencyApp(name, ids));
  ASSERT_EQ(monitor.appShard(app), app_shard);

  bool checked = false;
  monitor.onIncident([&](const OnlineIncident& incident) {
    checked = true;
    EXPECT_EQ(slave.seriesOf(ids[0])->endTime(), incident.triggered_at + 1);
    EXPECT_EQ(slave.seriesOf(ids[1])->endTime(), 100);
  });
  ASSERT_TRUE(streamUntilFire(monitor, app, ids, /*dropped=*/ids[1]));
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace fchain::online
