// Extends the Table-II overhead study to the parallel localization engine:
// sweeps component count × worker-thread count and reports end-to-end
// localization latency with the per-slave batch jobs run inline on the
// caller's thread (0 worker threads) vs on the worker pool (the paper's
// "analysis time" budget, §III-G — FChain's headline claim is pinpointing
// within seconds of the SLO violation). Both columns send the same S
// per-slave batch requests; the speedup is the pool's overlap alone.
//
// Three parts:
//   1. In-process sweep — N components spread round-robin over S slaves,
//      each with a 700 s six-metric stream and one CpuHog-style step on the
//      last component; LocalEndpoint transports, so the cells measure pure
//      compute scaling (needs real cores to show > 1×).
//   2. Real-socket sweep — the same cluster served by per-slave
//      SlaveService instances over unix sockets, the master reaching them
//      through SocketEndpoint: every cell pays genuine connect/encode/
//      send/recv/decode costs through the production wire protocol instead
//      of a sleep-based WAN emulation. Each service adds a 25 ms
//      analyze-side delay (the crash-drill hook) so the round-trip cost is
//      measurable even on a single-core machine: inline, the S per-slave
//      socket round-trips run one after another; on the pool they overlap
//      (≈ S× with S slaves and >= S threads). The 32-component / 4-slave /
//      4-thread cell must clear 2× or the bench exits nonzero; every
//      socket verdict must also be bit-identical to the in-process inline
//      reference (transport transparency).
//   3. Lossy-telemetry equivalence — replays the bench_robustness scenarios
//      (10 % sample loss, rotating dead slave behind a FlakyEndpoint
//      blackout) inline and on the pool.
//
// Every pooled cell in every part must return a PinpointResult
// bit-identical to the inline reference; each table prints the identity
// check per row.
//
// Usage: bench_table2_parallel_overhead [repetitions] [seed]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fchain/fchain.h"
#include "fchain/slave_service.h"
#include "runtime/flaky_endpoint.h"
#include "runtime/socket_endpoint.h"
#include "sim/injector.h"
#include "sim/simulator.h"

namespace {

using namespace fchain;
using Clock = std::chrono::steady_clock;

constexpr TimeSec kStreamLen = 700;
constexpr TimeSec kFaultStart = 600;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool sameFinding(const core::ComponentFinding& a,
                 const core::ComponentFinding& b) {
  if (a.component != b.component || a.onset != b.onset || a.trend != b.trend ||
      a.metrics.size() != b.metrics.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    const core::MetricFinding& ma = a.metrics[i];
    const core::MetricFinding& mb = b.metrics[i];
    if (ma.metric != mb.metric || ma.onset != mb.onset ||
        ma.change_point != mb.change_point || ma.trend != mb.trend ||
        ma.prediction_error != mb.prediction_error ||
        ma.expected_error != mb.expected_error) {
      return false;
    }
  }
  return true;
}

bool samePinpoint(const core::PinpointResult& a,
                  const core::PinpointResult& b) {
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

/// Synthetic monitored cluster: `components` VMs round-robin across
/// `slave_count` slaves, each streaming 700 s of noisy six-metric samples;
/// the last component takes a CpuHog-style step at t=600.
struct SyntheticCluster {
  std::vector<core::FChainSlave> slaves;
  std::vector<ComponentId> components;
  TimeSec tv = kStreamLen - 1;
};

SyntheticCluster buildCluster(std::size_t components, std::size_t slave_count,
                              std::uint64_t seed) {
  SyntheticCluster cluster;
  cluster.slaves.reserve(slave_count);
  for (HostId h = 0; h < slave_count; ++h) cluster.slaves.emplace_back(h);
  for (ComponentId id = 0; id < components; ++id) {
    cluster.components.push_back(id);
    cluster.slaves[id % slave_count].addComponent(id, 0);
  }
  const ComponentId faulty = static_cast<ComponentId>(components - 1);
  for (ComponentId id = 0; id < components; ++id) {
    Rng rng(mixSeed(seed, 0xc105, id));
    core::FChainSlave& slave = cluster.slaves[id % slave_count];
    std::array<double, kMetricCount> level{45.0, 900.0, 210.0,
                                           180.0, 35.0,  60.0};
    for (TimeSec t = 0; t < kStreamLen; ++t) {
      std::array<double, kMetricCount> sample{};
      const bool hogged = id == faulty && t >= kFaultStart;
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        // AR(1)-flavoured wander plus white jitter keeps CUSUM's bootstrap
        // honestly busy (a constant series would short-circuit selection).
        level[m] += rng.uniform(-0.4, 0.4);
        double value = level[m] + rng.uniform(-1.5, 1.5);
        if (hogged && m == 0) value *= 1.6;  // CPU step
        sample[m] = value;
      }
      slave.ingest(id, sample);
    }
  }
  return cluster;
}

struct TimedRun {
  core::PinpointResult result;
  double best_ms = 0.0;
};

TimedRun timeLocalize(SyntheticCluster& cluster, int threads,
                      int slave_threads, std::size_t repetitions) {
  core::FChainMaster master;
  master.setWorkerThreads(threads);
  for (core::FChainSlave& slave : cluster.slaves) {
    slave.setAnalysisThreads(slave_threads);
    master.registerSlave(&slave);
  }
  TimedRun run;
  run.best_ms = 1e300;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    const auto start = Clock::now();
    run.result = master.localize(cluster.components, cluster.tv);
    run.best_ms = std::min(run.best_ms, msSince(start));
  }
  for (core::FChainSlave& slave : cluster.slaves) {
    slave.setAnalysisThreads(0);
  }
  return run;
}

/// One SlaveService per slave on a unix socket under a throwaway directory:
/// the production wire path, in-process only so the bench stays hermetic.
class SocketCluster {
 public:
  SocketCluster(SyntheticCluster& cluster, double analyze_delay_ms)
      : cluster_(cluster) {
    char tmpl[] = "/tmp/fchain_t2_XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    dir_ = tmpl;
    for (std::size_t s = 0; s < cluster.slaves.size(); ++s) {
      core::SlaveServiceConfig config;
      config.listen = runtime::SocketAddress::unixPath(
          dir_ + "/s" + std::to_string(s) + ".sock");
      config.analyze_delay_ms = analyze_delay_ms;
      services_.push_back(
          std::make_unique<core::SlaveService>(cluster.slaves[s], config));
      services_.back()->start();
    }
  }

  ~SocketCluster() {
    for (auto& service : services_) service->stop();
    services_.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  TimedRun timeLocalize(int threads, int slave_threads,
                        std::size_t repetitions) {
    core::FChainMaster master;
    master.setWorkerThreads(threads);
    for (std::size_t s = 0; s < cluster_.slaves.size(); ++s) {
      cluster_.slaves[s].setAnalysisThreads(slave_threads);
      std::vector<ComponentId> manifest;
      for (ComponentId id : cluster_.components) {
        if (id % cluster_.slaves.size() == s) manifest.push_back(id);
      }
      runtime::SocketEndpointConfig config;
      config.address = services_[s]->address();
      config.backoff_seed = s;
      master.registerEndpoint(
          std::make_shared<runtime::SocketEndpoint>(config), manifest);
    }
    TimedRun run;
    run.best_ms = 1e300;
    for (std::size_t rep = 0; rep < repetitions; ++rep) {
      const auto start = Clock::now();
      run.result = master.localize(cluster_.components, cluster_.tv);
      run.best_ms = std::min(run.best_ms, msSince(start));
    }
    for (core::FChainSlave& slave : cluster_.slaves) {
      slave.setAnalysisThreads(0);
    }
    return run;
  }

 private:
  SyntheticCluster& cluster_;
  std::string dir_;
  std::vector<std::unique_ptr<core::SlaveService>> services_;
};

struct SweepOutcome {
  bool all_identical = true;
  /// Speedup of the 32-component / 4-thread cell (the acceptance headline).
  double headline_speedup = 0.0;
};

SweepOutcome sweepSynthetic(const char* title, std::size_t repetitions,
                            std::uint64_t seed) {
  constexpr std::size_t kSlaves = 4;
  std::printf("%s (%zu slaves)\n", title, kSlaves);
  std::printf("  %-12s %-10s %-12s %-12s %-10s %s\n", "components", "threads",
              "inline_ms", "pool_ms", "speedup", "identical");
  SweepOutcome outcome;
  for (std::size_t components : {8u, 16u, 32u, 64u}) {
    SyntheticCluster cluster = buildCluster(components, kSlaves, seed);
    const TimedRun inline_run = timeLocalize(cluster, /*threads=*/0,
                                             /*slave_threads=*/0, repetitions);
    for (int threads : {1, 2, 4, 8}) {
      // Threads beyond the slave count flow into slave-side batch analysis
      // (each slave fans its own components out across the spare cores).
      const int slave_threads =
          threads > static_cast<int>(kSlaves)
              ? threads / static_cast<int>(kSlaves)
              : 0;
      const TimedRun pooled =
          timeLocalize(cluster, threads, slave_threads, repetitions);
      const bool identical = samePinpoint(inline_run.result, pooled.result);
      outcome.all_identical = outcome.all_identical && identical;
      const double speedup = inline_run.best_ms / pooled.best_ms;
      if (components == 32 && threads == 4) {
        outcome.headline_speedup = speedup;
      }
      std::printf("  %-12zu %-10d %-12.2f %-12.2f %-10.2f %s\n", components,
                  threads, inline_run.best_ms, pooled.best_ms, speedup,
                  identical ? "yes" : "NO");
    }
  }
  std::printf("\n");
  return outcome;
}

/// The real-socket column: the same sweep over SlaveService/SocketEndpoint
/// unix-socket transports with a 25 ms server-side analyze delay standing
/// in for per-host network+analysis latency. Every socket verdict, inline
/// and pooled, is checked bit-identical against the in-process inline
/// reference — the wire codec must be transparent.
SweepOutcome sweepSockets(const char* title, double analyze_delay_ms,
                          std::size_t repetitions, std::uint64_t seed) {
  constexpr std::size_t kSlaves = 4;
  std::printf("%s (%zu slaves)\n", title, kSlaves);
  std::printf("  %-12s %-10s %-12s %-12s %-10s %s\n", "components", "threads",
              "inline_ms", "pool_ms", "speedup", "identical");
  SweepOutcome outcome;
  for (std::size_t components : {8u, 16u, 32u, 64u}) {
    SyntheticCluster cluster = buildCluster(components, kSlaves, seed);
    const TimedRun reference = timeLocalize(cluster, /*threads=*/0,
                                            /*slave_threads=*/0,
                                            /*repetitions=*/1);
    SocketCluster sockets(cluster, analyze_delay_ms);
    const TimedRun inline_run =
        sockets.timeLocalize(/*threads=*/0, /*slave_threads=*/0, repetitions);
    outcome.all_identical = outcome.all_identical &&
                            samePinpoint(reference.result, inline_run.result);
    for (int threads : {1, 2, 4, 8}) {
      const int slave_threads =
          threads > static_cast<int>(kSlaves)
              ? threads / static_cast<int>(kSlaves)
              : 0;
      const TimedRun pooled =
          sockets.timeLocalize(threads, slave_threads, repetitions);
      const bool identical = samePinpoint(reference.result, pooled.result);
      outcome.all_identical = outcome.all_identical && identical;
      const double speedup = inline_run.best_ms / pooled.best_ms;
      if (components == 32 && threads == 4) {
        outcome.headline_speedup = speedup;
      }
      std::printf("  %-12zu %-10d %-12.2f %-12.2f %-10.2f %s\n", components,
                  threads, inline_run.best_ms, pooled.best_ms, speedup,
                  identical ? "yes" : "NO");
    }
  }
  std::printf("\n");
  return outcome;
}

// --- Part 2: lossy-telemetry equivalence ----------------------------------

constexpr ComponentId kFaultyDb = 3;
constexpr std::size_t kRubisComponents = 4;

struct Incident {
  sim::RunRecord record;
  TimeSec tv = 0;
};

std::optional<Incident> simulateIncident(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = seed;
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {kFaultyDb};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  config.faults = {fault};
  auto result = sim::runScenario(config);
  if (!result.record.violation_time.has_value()) return std::nullopt;
  return Incident{std::move(result.record), *result.record.violation_time};
}

/// Replays one recorded incident through 10 % sample loss and a rotating
/// blackout slave (the bench_robustness_lossy_telemetry setup), localizing
/// with the given worker-thread count.
core::PinpointResult lossyVerdict(const Incident& incident, std::size_t trial,
                                  int threads, std::uint64_t seed) {
  sim::TelemetryFaultSpec loss;
  loss.type = sim::TelemetryFaultType::SampleDropBurst;
  loss.rate = 0.10;
  loss.seed = mixSeed(seed, 1, trial);
  sim::TelemetryFaultInjector telemetry({loss});

  std::vector<core::FChainSlave> slaves;
  slaves.reserve(kRubisComponents);
  for (HostId h = 0; h < kRubisComponents; ++h) slaves.emplace_back(h);
  for (ComponentId id = 0; id < kRubisComponents; ++id) {
    const MetricSeries& recorded = incident.record.metrics[id];
    const TimeSec start =
        recorded.endTime() - static_cast<TimeSec>(recorded.size());
    slaves[id].addComponent(id, start);
    for (TimeSec t = start; t < recorded.endTime(); ++t) {
      if (telemetry.sampleDropped(id, t)) continue;
      std::array<double, kMetricCount> sample{};
      for (MetricKind kind : kAllMetrics) {
        sample[metricIndex(kind)] = recorded.of(kind).at(t);
      }
      slaves[id].ingestAt(id, t, sample);
    }
  }

  core::FChainMaster master;
  master.setWorkerThreads(threads);
  for (ComponentId id = 0; id < kRubisComponents; ++id) {
    const bool dead = (id + trial) % kRubisComponents == 0;  // one per trial
    if (!dead) {
      master.registerSlave(&slaves[id]);
      continue;
    }
    runtime::FlakyConfig blackout;
    blackout.outage_windows = {
        {0, incident.record.metrics[id].endTime() + 1}};
    master.registerEndpoint(
        std::make_shared<runtime::FlakyEndpoint>(
            std::make_shared<runtime::LocalEndpoint>(&slaves[id]), blackout),
        {id});
  }
  return master.localize({0, 1, 2, 3}, incident.tv);
}

bool lossyEquivalence(std::uint64_t seed) {
  std::printf(
      "Lossy-telemetry equivalence (10 %% loss, rotating dead slave)\n");
  std::vector<Incident> incidents;
  for (std::size_t trial = 0; incidents.size() < 3 && trial < 12; ++trial) {
    if (auto incident = simulateIncident(mixSeed(seed, 0xbead, trial))) {
      incidents.push_back(std::move(*incident));
    }
  }
  if (incidents.empty()) {
    std::printf("  no incident produced an SLO violation\n\n");
    return false;
  }
  bool all_identical = true;
  for (std::size_t trial = 0; trial < incidents.size(); ++trial) {
    const auto inline_run = lossyVerdict(incidents[trial], trial, 0, seed);
    const auto pooled = lossyVerdict(incidents[trial], trial, 4, seed);
    const bool identical = samePinpoint(inline_run, pooled);
    all_identical = all_identical && identical;
    std::printf("  trial %zu: coverage %.2f, %s\n", trial,
                inline_run.coverage,
                identical ? "inline == pool" : "MISMATCH");
  }
  std::printf("\n");
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repetitions = 3;
  std::uint64_t seed = 42;
  if (argc > 1) repetitions = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 10);

  std::printf(
      "Parallel localization overhead (extends Table II; best of %zu)\n\n",
      repetitions);
  const SweepOutcome compute = sweepSynthetic(
      "Sweep 1: in-process transports (pure compute scaling)", repetitions,
      seed);
  // 25 ms per-batch analyze delay — a LAN-ish round-trip plus analysis cost
  // at each monitoring host, well under the default 200 ms request deadline.
  const SweepOutcome socket = sweepSockets(
      "Sweep 2: real unix-socket transports (25 ms per-slave analyze delay)",
      25.0, repetitions, seed);
  const bool lossy_ok = lossyEquivalence(seed);

  // With FCHAIN_TRACE=1 every localize() above recorded master / pool /
  // slave / signal-kernel spans; dump them for offline inspection (CI
  // uploads the JSON as an artifact).
  benchutil::maybeDumpTrace("bench_table2_parallel_overhead");

  bool failed = false;
  if (!compute.all_identical || !socket.all_identical || !lossy_ok) {
    std::printf("FAILURE: pooled verdict diverged from inline\n");
    failed = true;
  }
  if (socket.headline_speedup < 2.0) {
    std::printf(
        "FAILURE: socket 32-component / 4-thread speedup %.2fx is below 2x\n",
        socket.headline_speedup);
    failed = true;
  }
  if (failed) return 1;
  std::printf(
      "All pooled verdicts bit-identical to inline; socket headline "
      "speedup %.2fx.\n",
      socket.headline_speedup);
  return 0;
}
