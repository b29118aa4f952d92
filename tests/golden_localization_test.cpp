// Golden-trace regression tests for end-to-end localization: three
// canonical incidents (single fault, concurrent fault, degraded mode with
// one slave dark) are simulated, ingested, and localized, and the full
// PinpointResult — onset times, chain order, coverage, unanalyzed set — is
// rendered to text and compared byte-for-byte against checked-in golden
// files in tests/golden/.
//
// The rendering deliberately excludes raw prediction-error doubles: onsets,
// change points, trends, and the pinpointed/unanalyzed sets are integer
// results of the deterministic simulation + analysis pipeline and stable
// across platforms, while 17-digit doubles would make the golden brittle
// under legitimate FP-contraction differences.
//
// To regenerate after an intentional behavior change:
//   FCHAIN_UPDATE_GOLDEN=1 ./build/tests/test_golden_localization
// then review the diff like any other code change.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/fchain.h"
#include "netdep/dependency.h"
#include "pinpoint_render.h"
#include "runtime/flaky_endpoint.h"
#include "sim/simulator.h"

namespace fchain::core {
namespace {

// --- Incident construction ------------------------------------------------

/// Simulated four-tier RUBiS cluster ingested into two slaves (front hosts
/// {web=0, app1=1}, back hosts {app2=2, db=3}), mirroring the deployment
/// used across the master/slave tests.
struct Incident {
  std::unique_ptr<FChainSlave> front;
  std::unique_ptr<FChainSlave> back;
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
};

Incident makeIncident(const std::vector<faults::FaultSpec>& faults,
                      std::uint64_t seed) {
  Incident incident;
  incident.front = std::make_unique<FChainSlave>(0);
  incident.back = std::make_unique<FChainSlave>(1);
  incident.front->addComponent(0, 0);
  incident.front->addComponent(1, 0);
  incident.back->addComponent(2, 0);
  incident.back->addComponent(3, 0);

  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = seed;
  config.faults = faults;
  sim::Simulation sim(config);
  while (!sim.violationTime().has_value() && sim.now() < 3600) {
    sim.step();
    const TimeSec t = sim.now() - 1;
    for (ComponentId id = 0; id < 4; ++id) {
      std::array<double, kMetricCount> sample{};
      for (MetricKind kind : kAllMetrics) {
        sample[metricIndex(kind)] = sim.app().metricsOf(id).of(kind).at(t);
      }
      (id < 2 ? *incident.front : *incident.back).ingest(id, sample);
    }
  }
  EXPECT_TRUE(sim.violationTime().has_value());
  incident.tv = sim.violationTime().value_or(sim.now());
  incident.deps = netdep::discoverDependencies(sim.record());
  return incident;
}

faults::FaultSpec cpuHogOnDb() {
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {3};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  return fault;
}

// --- Golden comparison ----------------------------------------------------

std::string goldenPath(const std::string& name) {
  return std::string(FCHAIN_GOLDEN_DIR) + "/" + name + ".golden";
}

void expectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  const char* update = std::getenv("FCHAIN_UPDATE_GOLDEN");
  if (update != nullptr && update[0] != '\0' &&
      !(update[0] == '0' && update[1] == '\0')) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "regenerated golden " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with FCHAIN_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "localization output diverged from " << path
      << "; if the change is intentional, regenerate with "
         "FCHAIN_UPDATE_GOLDEN=1 and review the diff";
}

// --- Scenarios ------------------------------------------------------------

TEST(GoldenLocalization, SingleFault) {
  // The canonical RUBiS CpuHog incident: a multi-threaded hog on the db VM.
  Incident incident = makeIncident({cpuHogOnDb()}, /*seed=*/77);
  FChainMaster master;
  master.registerSlave(incident.front.get());
  master.registerSlave(incident.back.get());
  master.setDependencies(incident.deps);
  const PinpointResult result =
      master.localize({0, 1, 2, 3}, incident.tv);
  // Sanity before pinning: the hog's VM must be blamed with full coverage.
  EXPECT_EQ(result.pinpointed, (std::vector<ComponentId>{3}));
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  expectMatchesGolden("single_fault", renderPinpoint(result, incident.tv));
}

TEST(GoldenLocalization, ConcurrentFault) {
  // OffloadBug hits both app tiers at once (one FaultSpec, two targets) —
  // the integrated pinpointing must blame both via the concurrency window.
  faults::FaultSpec fault;
  fault.type = faults::FaultType::OffloadBug;
  fault.targets = {1, 2};
  fault.start_time = 2000;
  Incident incident = makeIncident({fault}, /*seed=*/77);
  FChainMaster master;
  master.registerSlave(incident.front.get());
  master.registerSlave(incident.back.get());
  master.setDependencies(incident.deps);
  const PinpointResult result =
      master.localize({0, 1, 2, 3}, incident.tv);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  expectMatchesGolden("concurrent_fault",
                      renderPinpoint(result, incident.tv));
}

TEST(GoldenLocalization, DegradedOneSlaveDown) {
  // Same CpuHog incident, but the front slave (web + app1) is dark for the
  // whole run: localization proceeds on half the cluster and must report
  // the reduced coverage and the unanalyzed components — and still blame
  // the db from what it can see.
  Incident incident = makeIncident({cpuHogOnDb()}, /*seed=*/77);
  FChainMaster master;
  runtime::FlakyConfig outage;
  outage.outage_windows = {{0, 1'000'000}};
  master.registerEndpoint(
      std::make_shared<runtime::FlakyEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(incident.front.get()),
          outage),
      {0, 1});
  master.registerSlave(incident.back.get());
  master.setDependencies(incident.deps);
  const PinpointResult result =
      master.localize({0, 1, 2, 3}, incident.tv);
  EXPECT_DOUBLE_EQ(result.coverage, 0.5);
  EXPECT_EQ(result.unanalyzed, (std::vector<ComponentId>{0, 1}));
  expectMatchesGolden("degraded_one_slave_down",
                      renderPinpoint(result, incident.tv));
}

/// The goldens pin the default inline fan-out (0 worker threads); the
/// determinism guarantee (pooled == inline bit-identically) is tested
/// exhaustively in fchain_parallel_test.cpp. This spot-check ties the two
/// suites together: the pooled fan-out renders to the same golden bytes.
TEST(GoldenLocalization, ParallelFanOutMatchesSameGolden) {
  Incident incident = makeIncident({cpuHogOnDb()}, /*seed=*/77);
  FChainMaster master;
  master.setWorkerThreads(4);
  master.registerSlave(incident.front.get());
  master.registerSlave(incident.back.get());
  master.setDependencies(incident.deps);
  const PinpointResult result =
      master.localize({0, 1, 2, 3}, incident.tv);
  expectMatchesGolden("single_fault", renderPinpoint(result, incident.tv));
}

}  // namespace
}  // namespace fchain::core
