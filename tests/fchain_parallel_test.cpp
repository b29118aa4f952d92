// Parallel localization engine tests: the worker pool, batched slave
// analysis, and the determinism guarantee — localize() must return the same
// PinpointResult whether the per-slave batch jobs run inline (0 threads) or
// on the pool at any thread count, including under injected endpoint
// outages (degraded mode).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fchain/fchain.h"
#include "obs/trace.h"
#include "netdep/dependency.h"
#include "runtime/flaky_endpoint.h"
#include "runtime/worker_pool.h"
#include "sim/simulator.h"

namespace fchain::core {
namespace {

// --- WorkerPool -----------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskAcrossThreads) {
  runtime::WorkerPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkerPool, ThreadCountClampsToAtLeastOne) {
  runtime::WorkerPool pool(-3);  // still gets one worker to run the task
  std::atomic<int> counter{0};
  pool.run({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 1);
}

TEST(WorkerPool, ReusableAcrossRuns) {
  runtime::WorkerPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.run(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 30);
}

TEST(WorkerPool, PropagatesFirstTaskExceptionAndStaysUsable) {
  runtime::WorkerPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(counter.load(), 5);  // the other tasks still ran to completion
  pool.run({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 6);
}

// --- Shared incident fixture ----------------------------------------------

/// One RUBiS CpuHog incident ingested into two slaves of two VMs each:
/// slave_front hosts {web=0, app1=1}, slave_back hosts {app2=2, db=3}; the
/// fault is on the db VM. Built once — localization is a read-only fan-out,
/// so every test can share the ingested state.
struct Cluster {
  FChainSlave front{0};  // components 0, 1
  FChainSlave back{1};   // components 2, 3
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
};

Cluster& cluster() {
  static Cluster& instance = *[] {
    auto* c = new Cluster();
    sim::ScenarioConfig config;
    config.kind = sim::AppKind::Rubis;
    config.seed = 77;
    faults::FaultSpec fault;
    fault.type = faults::FaultType::CpuHog;
    fault.targets = {3};
    fault.start_time = 2000;
    fault.intensity = 1.35;
    config.faults = {fault};

    c->front.addComponent(0, 0);
    c->front.addComponent(1, 0);
    c->back.addComponent(2, 0);
    c->back.addComponent(3, 0);

    sim::Simulation sim(config);
    while (!sim.violationTime().has_value() && sim.now() < 3600) {
      sim.step();
      const TimeSec t = sim.now() - 1;
      for (ComponentId id = 0; id < 4; ++id) {
        std::array<double, kMetricCount> sample{};
        for (MetricKind kind : kAllMetrics) {
          sample[metricIndex(kind)] = sim.app().metricsOf(id).of(kind).at(t);
        }
        (id < 2 ? c->front : c->back).ingest(id, sample);
      }
    }
    EXPECT_TRUE(sim.violationTime().has_value());
    c->tv = *sim.violationTime();
    c->deps = netdep::discoverDependencies(sim.record());
    return c;
  }();
  return instance;
}

bool sameFinding(const ComponentFinding& a, const ComponentFinding& b) {
  if (a.component != b.component || a.onset != b.onset || a.trend != b.trend ||
      a.metrics.size() != b.metrics.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    const MetricFinding& ma = a.metrics[i];
    const MetricFinding& mb = b.metrics[i];
    if (ma.metric != mb.metric || ma.onset != mb.onset ||
        ma.change_point != mb.change_point || ma.trend != mb.trend ||
        ma.prediction_error != mb.prediction_error ||
        ma.expected_error != mb.expected_error) {
      return false;
    }
  }
  return true;
}

/// Byte-level equality of every PinpointResult field.
bool samePinpoint(const PinpointResult& a, const PinpointResult& b) {
  if (a.pinpointed != b.pinpointed || a.external_factor != b.external_factor ||
      a.external_trend != b.external_trend || a.coverage != b.coverage ||
      a.unanalyzed != b.unanalyzed || a.chain.size() != b.chain.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    if (!sameFinding(a.chain[i], b.chain[i])) return false;
  }
  return true;
}

// --- Batched slave analysis -----------------------------------------------

TEST(SlaveBatch, BatchMatchesPerComponentAnalysisAtAnyThreadCount) {
  Cluster& c = cluster();
  const std::vector<ComponentId> ids = {2, 3, 99};  // 99 is unknown
  std::vector<std::optional<ComponentFinding>> reference;
  for (ComponentId id : ids) reference.push_back(c.back.analyze(id, c.tv));
  EXPECT_FALSE(reference[2].has_value());

  for (int threads : {0, 3, 8}) {
    c.back.setAnalysisThreads(threads);
    const auto batch = c.back.analyzeBatch(ids, c.tv);
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].has_value(), reference[i].has_value()) << i;
      if (batch[i].has_value()) {
        EXPECT_TRUE(sameFinding(*batch[i], *reference[i])) << i;
      }
    }
  }
  c.back.setAnalysisThreads(0);
}

// --- Master determinism: inline vs pooled fan-out --------------------------

PinpointResult localizeHealthy(int threads) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(threads);
  master.registerSlave(&c.front);
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);
  return master.localize({0, 1, 2, 3}, c.tv);
}

TEST(ParallelLocalize, HealthyClusterIsIdenticalAcrossThreadCounts) {
  const PinpointResult inline_run = localizeHealthy(0);
  EXPECT_EQ(inline_run.pinpointed, (std::vector<ComponentId>{3}));
  EXPECT_DOUBLE_EQ(inline_run.coverage, 1.0);
  for (int threads : {1, 2, 8}) {
    const PinpointResult pooled = localizeHealthy(threads);
    EXPECT_TRUE(samePinpoint(inline_run, pooled)) << threads << " threads";
  }
}

/// The front slave (web + app1) is dark for the whole incident, so the
/// batch covering components {0, 1} exhausts its retries while {2, 3}
/// analyze normally — degraded mode under parallel fan-out.
PinpointResult localizeWithOutage(int threads) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(threads);
  runtime::FlakyConfig outage;
  outage.outage_windows = {{0, 1'000'000}};
  master.registerEndpoint(
      std::make_shared<runtime::FlakyEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(&c.front), outage),
      {0, 1});
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);
  return master.localize({0, 1, 2, 3}, c.tv);
}

TEST(ParallelLocalize, EndpointOutageIsIdenticalAcrossThreadCounts) {
  const PinpointResult inline_run = localizeWithOutage(0);
  EXPECT_DOUBLE_EQ(inline_run.coverage, 0.5);
  EXPECT_EQ(inline_run.unanalyzed, (std::vector<ComponentId>{0, 1}));
  EXPECT_NE(std::find(inline_run.pinpointed.begin(),
                      inline_run.pinpointed.end(), ComponentId{3}),
            inline_run.pinpointed.end());
  for (int threads : {1, 2, 8}) {
    const PinpointResult pooled = localizeWithOutage(threads);
    EXPECT_TRUE(samePinpoint(inline_run, pooled)) << threads << " threads";
  }
}

TEST(ParallelLocalize, SlaveSideParallelismPreservesTheVerdict) {
  Cluster& c = cluster();
  const PinpointResult inline_run = localizeHealthy(0);
  c.front.setAnalysisThreads(4);
  c.back.setAnalysisThreads(4);
  const PinpointResult parallel = localizeHealthy(4);
  c.front.setAnalysisThreads(0);
  c.back.setAnalysisThreads(0);
  EXPECT_TRUE(samePinpoint(inline_run, parallel));
}

// --- Batch transport accounting -------------------------------------------

/// Four components on two slaves cost one batch request per slave, whether
/// the batch jobs run inline or on the pool.
void expectOneBatchRequestPerSlave(int threads) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(threads);
  master.registerSlave(&c.front);
  master.registerSlave(&c.back);
  (void)master.localize({0, 1, 2, 3}, c.tv);
  const auto stats = master.runtimeStats();
  EXPECT_EQ(stats.requests, 2u);  // one batch per slave, not one per VM
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ParallelLocalize, OneBatchRequestPerSlave) {
  expectOneBatchRequestPerSlave(2);
}

TEST(ParallelLocalize, OneBatchRequestPerSlaveInline) {
  expectOneBatchRequestPerSlave(0);
}

TEST(ParallelLocalize, OutageExhaustsBatchRetriesAndMarksEndpointDown) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(2);
  runtime::FlakyConfig outage;
  outage.outage_windows = {{0, 1'000'000}};
  master.registerEndpoint(
      std::make_shared<runtime::FlakyEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(&c.front), outage),
      {0, 1});
  const auto result = master.localize({0, 1}, c.tv);
  EXPECT_DOUBLE_EQ(result.coverage, 0.0);
  const auto stats = master.runtimeStats();
  EXPECT_EQ(stats.requests, 3u);  // the batch burned the full retry budget
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.failures, 2u);  // both components stayed unanalyzed
  EXPECT_GT(stats.simulated_backoff_ms, 0.0);
  EXPECT_EQ(master.endpointHealth().front(), runtime::HealthState::Down);

  // A later localization outside the outage window probes once and fully
  // recovers the endpoint.
  const auto after = master.localize({0, 1}, 1'000'001);
  EXPECT_DOUBLE_EQ(after.coverage, 1.0);
  EXPECT_EQ(master.endpointHealth().front(), runtime::HealthState::Healthy);
}

// --- Observability: pool drain + stats adapter ----------------------------

TEST(WorkerPool, PendingCountRisesWhileBlockedAndDrainsToZero) {
  runtime::WorkerPool pool(1);
  EXPECT_EQ(pool.pendingCount(), 0u);
  std::atomic<bool> release{false};
  std::atomic<std::size_t> observed_pending{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&pool, &release, &observed_pending] {
    // The single worker is parked here, so the remaining tasks are still
    // pending — the count must include them plus this running task.
    observed_pending.store(pool.pendingCount());
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 3; ++i) tasks.push_back([] {});
  std::thread runner([&pool, &tasks] { pool.run(std::move(tasks)); });
  while (observed_pending.load() == 0) std::this_thread::yield();
  EXPECT_EQ(observed_pending.load(), 4u);
  release.store(true);
  runner.join();
  EXPECT_EQ(pool.pendingCount(), 0u);
}

TEST(ParallelLocalize, PoolDrainsToZeroAfterLocalize) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(4);
  master.registerSlave(&c.front);
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);
  (void)master.localize({0, 1, 2, 3}, c.tv);
  // localize() waits for the fan-out, so no batch job may still be queued —
  // and the master records that drained depth as a gauge.
  EXPECT_DOUBLE_EQ(
      master.metrics().snapshot().gauges.at("master.pool_pending"), 0.0);
}

TEST(ParallelLocalize, RuntimeStatsAdapterMatchesRegistrySnapshot) {
  // Exercise retries *and* failures (dark front slave burns the full retry
  // budget), then check the legacy struct is exactly the registry values.
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(2);
  runtime::FlakyConfig outage;
  outage.outage_windows = {{0, 1'000'000}};
  master.registerEndpoint(
      std::make_shared<runtime::FlakyEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(&c.front), outage),
      {0, 1});
  master.registerSlave(&c.back);
  (void)master.localize({0, 1, 2, 3}, c.tv);

  const MasterRuntimeStats stats = master.runtimeStats();
  const obs::MetricsSnapshot snap = master.metrics().snapshot();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.failures, 0u);
  EXPECT_GT(stats.simulated_backoff_ms, 0.0);
  EXPECT_EQ(stats.requests, snap.counters.at("master.requests"));
  EXPECT_EQ(stats.retries, snap.counters.at("master.retries"));
  EXPECT_EQ(stats.failures, snap.counters.at("master.failures"));
  EXPECT_EQ(stats.simulated_backoff_ms, snap.gauges.at("master.backoff_ms"));
  // Every localize() lands one observation in the latency histogram.
  EXPECT_EQ(snap.histograms.at("master.localize_ms").count, 1u);
}

TEST(ParallelLocalize, TracedLocalizeEmitsPipelineSpans) {
  // Flip the global tracer on around one parallel localization and check the
  // span taxonomy covers every pipeline layer; the verdict itself must be
  // untouched by tracing.
  (void)cluster();  // ingest the fixture before the tracer starts recording
  const PinpointResult reference = localizeHealthy(0);
  obs::Tracer& tracer = obs::tracer();
  const bool was_enabled = tracer.enabled();
  tracer.setEnabled(true);
  tracer.clear();
  const PinpointResult traced = localizeHealthy(2);
  tracer.setEnabled(was_enabled);
  EXPECT_TRUE(samePinpoint(reference, traced));

  std::set<std::string> names;
  for (const obs::SpanRecord& r : tracer.records()) names.insert(r.name);
  tracer.clear();
  for (const char* expected :
       {"master.localize", "master.fanout", "master.merge", "master.batch",
        "pool.queue_wait", "pool.task", "slave.analyze_batch",
        "slave.analyze_vm", "selector.component", "selector.metric",
        "signal.cusum", "signal.burst_threshold"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }
}

// --- Concurrent localizations ---------------------------------------------

TEST(ParallelLocalize, ConcurrentLocalizeCallsAgree) {
  Cluster& c = cluster();
  const PinpointResult reference = localizeHealthy(0);
  // A fresh master: the concurrent calls are its first, so none of them may
  // race another over building the pool (TSan checks this).
  FChainMaster master;
  master.setWorkerThreads(4);
  master.registerSlave(&c.front);
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);

  std::vector<PinpointResult> results(4);
  std::vector<std::thread> callers;
  callers.reserve(results.size());
  for (auto& slot : results) {
    callers.emplace_back([&master, &c, &slot] {
      slot = master.localize({0, 1, 2, 3}, c.tv);
    });
  }
  for (auto& caller : callers) caller.join();
  for (const PinpointResult& result : results) {
    EXPECT_TRUE(samePinpoint(reference, result));
  }
}

}  // namespace
}  // namespace fchain::core
