// Unit tests for the online monitoring runtime: SLO latch -> auto-trigger,
// cooldown queueing/drops, re-arm after recovery, ingest routing and
// fire-and-forget ingest over flaky transports, the checkpointed ingest
// path, and the online.* metric instruments.
#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/recovery.h"
#include "online/checkpointed_endpoint.h"
#include "online/monitor.h"
#include "runtime/flaky_endpoint.h"

namespace fchain::online {
namespace {

std::array<double, kMetricCount> sampleAt(TimeSec t, ComponentId id) {
  // Deterministic, mildly wiggly telemetry; distinct per component.
  std::array<double, kMetricCount> s{};
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    s[m] = 10.0 + static_cast<double>(id) +
           std::sin(static_cast<double>(t) * 0.1 + static_cast<double>(m));
  }
  return s;
}

// --- Monitor fixtures -----------------------------------------------------

/// Two slaves x two components, one latency app across all four. The
/// FChainConfig keeps the paper defaults (the synthetic streams here are
/// short; only trigger plumbing is under test, not localization quality).
struct Fixture {
  OnlineMonitorConfig config;
  std::unique_ptr<core::FChainSlave> front;
  std::unique_ptr<core::FChainSlave> back;
  std::unique_ptr<OnlineMonitor> monitor;
  std::size_t app = 0;

  explicit Fixture(OnlineMonitorConfig cfg = {}) : config(std::move(cfg)) {
    front = std::make_unique<core::FChainSlave>(0, config.fchain);
    back = std::make_unique<core::FChainSlave>(1, config.fchain);
    front->addComponent(0, 0);
    front->addComponent(1, 0);
    back->addComponent(2, 0);
    back->addComponent(3, 0);
    monitor = std::make_unique<OnlineMonitor>(config);
    monitor->addSlave(front.get());
    monitor->addSlave(back.get());
    AppSpec spec;
    spec.name = "app";
    spec.components = {0, 1, 2, 3};
    spec.slo.kind = SloSpec::Kind::Latency;
    spec.slo.latency_threshold_sec = 0.1;
    spec.slo.sustain_sec = 3;
    app = monitor->addApplication(spec);
  }

  void streamTick(TimeSec t, double latency) {
    for (ComponentId id = 0; id < 4; ++id) {
      monitor->ingest(id, t, sampleAt(t, id));
    }
    monitor->observeLatency(app, t, latency);
    monitor->pump();
  }
};

// --- Triggering -----------------------------------------------------------

TEST(OnlineMonitor, SustainedViolationAutoTriggersLocalization) {
  Fixture fx;
  for (TimeSec t = 0; t < 200; ++t) fx.streamTick(t, 0.05);
  EXPECT_TRUE(fx.monitor->incidents().empty());
  for (TimeSec t = 200; t < 210; ++t) fx.streamTick(t, 0.5);
  ASSERT_EQ(fx.monitor->incidents().size(), 1u);
  const OnlineIncident& incident = fx.monitor->incidents()[0];
  EXPECT_EQ(incident.app, fx.app);
  EXPECT_EQ(incident.violation_time, 202);  // sustain=3: latched on tick 202
  EXPECT_EQ(incident.triggered_at, 202);
  EXPECT_EQ(incident.queued_delay_sec, 0);
  EXPECT_DOUBLE_EQ(incident.result.coverage, 1.0);
  const auto snap = fx.monitor->metrics().snapshot();
  EXPECT_EQ(snap.counters.at("online.slo_latches"), 1u);
  EXPECT_EQ(snap.counters.at("online.triggers"), 1u);
  EXPECT_EQ(snap.histograms.at("online.trigger_latency_ms").count, 1u);
}

TEST(OnlineMonitor, LatchedMonitorDoesNotRetriggerWhileViolationPersists) {
  Fixture fx;
  for (TimeSec t = 0; t < 100; ++t) fx.streamTick(t, 0.05);
  // Violation persists for minutes (injected faults never end).
  for (TimeSec t = 100; t < 400; ++t) fx.streamTick(t, 0.5);
  EXPECT_EQ(fx.monitor->incidents().size(), 1u);
}

TEST(OnlineMonitor, RearmsAfterRecoveryAndCatchesTheNextFault) {
  OnlineMonitorConfig cfg;
  cfg.rearm_good_sec = 10;
  cfg.cooldown_sec = 5;
  Fixture fx(cfg);
  for (TimeSec t = 0; t < 100; ++t) fx.streamTick(t, 0.05);
  for (TimeSec t = 100; t < 110; ++t) fx.streamTick(t, 0.5);
  ASSERT_EQ(fx.monitor->incidents().size(), 1u);
  // Recovery: rearm_good_sec of in-SLO signal re-arms the monitor...
  for (TimeSec t = 110; t < 150; ++t) fx.streamTick(t, 0.05);
  EXPECT_EQ(fx.monitor->incidents().size(), 1u);
  // ...so a second sustained violation latches and triggers afresh.
  for (TimeSec t = 150; t < 160; ++t) fx.streamTick(t, 0.5);
  ASSERT_EQ(fx.monitor->incidents().size(), 2u);
  EXPECT_EQ(fx.monitor->incidents()[1].violation_time, 152);
}

TEST(OnlineMonitor, RecoveryShorterThanRearmWindowDoesNotRearm) {
  OnlineMonitorConfig cfg;
  cfg.rearm_good_sec = 20;
  Fixture fx(cfg);
  for (TimeSec t = 0; t < 100; ++t) fx.streamTick(t, 0.05);
  for (TimeSec t = 100; t < 110; ++t) fx.streamTick(t, 0.5);
  ASSERT_EQ(fx.monitor->incidents().size(), 1u);
  // 10 good seconds < rearm_good_sec, then the violation resumes: the
  // still-latched monitor must not fire a second incident.
  for (TimeSec t = 110; t < 120; ++t) fx.streamTick(t, 0.05);
  for (TimeSec t = 120; t < 200; ++t) fx.streamTick(t, 0.5);
  EXPECT_EQ(fx.monitor->incidents().size(), 1u);
}

// --- Cooldown and queueing ------------------------------------------------

/// Two apps on disjoint component pairs, latching close together.
struct TwoAppFixture {
  std::unique_ptr<core::FChainSlave> front;
  std::unique_ptr<core::FChainSlave> back;
  std::unique_ptr<OnlineMonitor> monitor;
  std::size_t app_a = 0;
  std::size_t app_b = 0;

  explicit TwoAppFixture(OnlineMonitorConfig cfg) {
    front = std::make_unique<core::FChainSlave>(0, cfg.fchain);
    back = std::make_unique<core::FChainSlave>(1, cfg.fchain);
    front->addComponent(0, 0);
    front->addComponent(1, 0);
    back->addComponent(2, 0);
    back->addComponent(3, 0);
    monitor = std::make_unique<OnlineMonitor>(cfg);
    monitor->addSlave(front.get());
    monitor->addSlave(back.get());
    AppSpec a;
    a.name = "a";
    a.components = {0, 1};
    a.slo.sustain_sec = 3;
    AppSpec b;
    b.name = "b";
    b.components = {2, 3};
    b.slo.sustain_sec = 3;
    app_a = monitor->addApplication(a);
    app_b = monitor->addApplication(b);
  }

  void streamTick(TimeSec t, double lat_a, double lat_b) {
    for (ComponentId id = 0; id < 4; ++id) {
      monitor->ingest(id, t, sampleAt(t, id));
    }
    monitor->observeLatency(app_a, t, lat_a);
    monitor->observeLatency(app_b, t, lat_b);
    monitor->pump();
  }
};

TEST(OnlineMonitor, OverlappingIncidentQueuesThroughTheCooldown) {
  OnlineMonitorConfig cfg;
  cfg.cooldown_sec = 30;
  TwoAppFixture fx(cfg);
  for (TimeSec t = 0; t < 100; ++t) fx.streamTick(t, 0.05, 0.05);
  // Both apps violate; A latches first (observed first), B queues.
  for (TimeSec t = 100; t < 110; ++t) fx.streamTick(t, 0.5, 0.5);
  ASSERT_EQ(fx.monitor->incidents().size(), 1u);
  EXPECT_EQ(fx.monitor->incidents()[0].app, fx.app_a);
  EXPECT_EQ(fx.monitor->pendingTriggers(), 1u);
  // The cooldown expires mid-stream; pump() fires the queued incident with
  // its original violation time.
  for (TimeSec t = 110; t < 140; ++t) fx.streamTick(t, 0.5, 0.5);
  ASSERT_EQ(fx.monitor->incidents().size(), 2u);
  const OnlineIncident& queued = fx.monitor->incidents()[1];
  EXPECT_EQ(queued.app, fx.app_b);
  EXPECT_EQ(queued.violation_time, 102);
  EXPECT_GT(queued.triggered_at, queued.violation_time);
  EXPECT_EQ(queued.queued_delay_sec,
            queued.triggered_at - queued.violation_time);
  const auto snap = fx.monitor->metrics().snapshot();
  EXPECT_EQ(snap.counters.at("online.incidents_queued"), 1u);
  EXPECT_EQ(snap.counters.at("online.triggers"), 2u);
}

TEST(OnlineMonitor, QueueBoundDropsExcessLatches) {
  OnlineMonitorConfig cfg;
  cfg.cooldown_sec = 1000;  // nothing after the first fires in-band
  cfg.max_pending_incidents = 0;
  TwoAppFixture fx(cfg);
  for (TimeSec t = 0; t < 100; ++t) fx.streamTick(t, 0.05, 0.05);
  for (TimeSec t = 100; t < 110; ++t) fx.streamTick(t, 0.5, 0.5);
  EXPECT_EQ(fx.monitor->incidents().size(), 1u);
  EXPECT_EQ(fx.monitor->pendingTriggers(), 0u);
  const auto snap = fx.monitor->metrics().snapshot();
  EXPECT_EQ(snap.counters.at("online.incidents_dropped"), 1u);
  EXPECT_EQ(snap.counters.at("online.slo_latches"), 2u);
}

TEST(OnlineMonitor, DrainFlushesTheQueueRegardlessOfCooldown) {
  OnlineMonitorConfig cfg;
  cfg.cooldown_sec = 1000;
  TwoAppFixture fx(cfg);
  for (TimeSec t = 0; t < 100; ++t) fx.streamTick(t, 0.05, 0.05);
  for (TimeSec t = 100; t < 110; ++t) fx.streamTick(t, 0.5, 0.5);
  ASSERT_EQ(fx.monitor->pendingTriggers(), 1u);
  EXPECT_EQ(fx.monitor->drain(), 1u);
  EXPECT_EQ(fx.monitor->incidents().size(), 2u);
}

// --- Transport behaviour --------------------------------------------------

TEST(OnlineMonitor, UnroutableComponentCountsAsIngestFailure) {
  Fixture fx;
  fx.monitor->ingest(99, 0, sampleAt(0, 99));
  EXPECT_EQ(
      fx.monitor->metrics().snapshot().counters.at("online.ingest_failures"),
      1u);
}

TEST(OnlineMonitor, FlakyIngestIsLossyButGapFillRepairsTheSlave) {
  OnlineMonitorConfig cfg;
  core::FChainSlave slave(0, cfg.fchain);
  slave.addComponent(0, 0);
  OnlineMonitor monitor(cfg);
  runtime::FlakyConfig flaky;
  flaky.drop_probability = 0.2;
  flaky.seed = 5;
  monitor.addEndpoint(
      std::make_shared<runtime::FlakyEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(&slave), flaky),
      {0});
  AppSpec spec;
  spec.name = "lossy";
  spec.components = {0};
  monitor.addApplication(spec);
  for (TimeSec t = 0; t < 400; ++t) monitor.ingest(0, t, sampleAt(t, 0));
  const auto snap = monitor.metrics().snapshot();
  const std::uint64_t failures = snap.counters.at("online.ingest_failures");
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, 400u);
  // The slave's series is gap-filled back to a contiguous 1 Hz stream; at
  // most the tail sample is missing (if the final sends were dropped).
  ASSERT_NE(slave.seriesOf(0), nullptr);
  EXPECT_GE(slave.seriesOf(0)->endTime(), 395);
  EXPECT_EQ(slave.ingestStatsOf(0)->gaps_filled + 400 - failures,
            static_cast<std::size_t>(slave.seriesOf(0)->endTime()));
}

TEST(OnlineMonitor, CheckpointedIngestJournalsEverySample) {
  const std::string dir =
      ::testing::TempDir() + "/online_checkpointed_ingest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  OnlineMonitorConfig cfg;
  core::FChainSlave slave(0, cfg.fchain);
  slave.addComponent(0, 0);
  core::SlaveCheckpointer checkpointer(slave, dir);
  OnlineMonitor monitor(cfg);
  monitor.addEndpoint(
      std::make_shared<CheckpointedEndpoint>(&slave, &checkpointer), {0});
  for (TimeSec t = 0; t < 50; ++t) monitor.ingest(0, t, sampleAt(t, 0));
  EXPECT_EQ(checkpointer.journaledSinceSnapshot(), 50u);
  // Crash now: recovery rebuilds a slave with the identical series.
  const auto recovered = core::SlaveCheckpointer::recover(dir, 0, cfg.fchain);
  ASSERT_NE(recovered.slave.seriesOf(0), nullptr);
  EXPECT_EQ(recovered.slave.seriesOf(0)->endTime(),
            slave.seriesOf(0)->endTime());
}

TEST(OnlineMonitor, IncidentCallbackSeesTheIncidentSynchronously) {
  Fixture fx;
  std::vector<TimeSec> seen;
  fx.monitor->onIncident(
      [&](const OnlineIncident& incident) {
        seen.push_back(incident.violation_time);
        // At callback time the slaves hold complete data through the
        // trigger tick — the equivalence-harness contract.
        EXPECT_EQ(fx.front->seriesOf(0)->endTime(),
                  incident.triggered_at + 1);
      });
  for (TimeSec t = 0; t < 100; ++t) fx.streamTick(t, 0.05);
  for (TimeSec t = 100; t < 110; ++t) fx.streamTick(t, 0.5);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 102);
}

TEST(OnlineMonitor, ApplicationWithNoComponentsIsRejected) {
  OnlineMonitor monitor;
  AppSpec empty;
  empty.name = "empty";
  EXPECT_THROW(monitor.addApplication(empty), std::invalid_argument);
}

}  // namespace
}  // namespace fchain::online
