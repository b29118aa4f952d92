// online_soak: the always-on monitoring runtime left running for simulated
// hours against a multi-tenant fleet.
//
// Three applications (RUBiS, System S, Hadoop) stream 1 Hz telemetry into
// one OnlineMonitor; each suffers one staggered fault. The monitor latches
// each SLO violation, auto-triggers the master's look-back fan-out (the
// System S incident lands inside the RUBiS cooldown and exercises the
// queued-trigger path), and reports every incident as it completes. The
// deterministic bit-identity version of this run — online pinpoints checked
// byte-for-byte against offline replay — is tests/online_soak_test.cpp;
// this driver is the operator-facing shape of the same loop, suitable for
// multi-hour runs.
//
// Usage: online_soak [ticks] [base_seed]
//   ticks also honours FCHAIN_SOAK_TICKS when no argument is given
//   (default 7200 simulated seconds, floor 5000 so all three faults land).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "netdep/dependency.h"
#include "online/monitor.h"
#include "sim/apps.h"
#include "sim/injector.h"
#include "sim/stream.h"

using namespace fchain;

namespace {

std::size_t soakTicks(int argc, char** argv) {
  unsigned long long ticks = 7200;
  if (argc > 1) {
    ticks = std::strtoull(argv[1], nullptr, 10);
  } else if (const char* env = std::getenv("FCHAIN_SOAK_TICKS");
             env != nullptr && env[0] != '\0') {
    ticks = std::strtoull(env, nullptr, 10);
  }
  // The last fault starts at t=3400; below this floor the run would end
  // before its SLO latch and the "3 incidents" gate could never hold.
  return std::max<std::size_t>(5000, static_cast<std::size_t>(ticks));
}

faults::FaultSpec fault(faults::FaultType type, std::vector<ComponentId> on,
                        TimeSec start, double intensity = 1.0) {
  faults::FaultSpec spec;
  spec.type = type;
  spec.targets = std::move(on);
  spec.start_time = start;
  spec.intensity = intensity;
  return spec;
}

struct FleetApp {
  std::string name;
  sim::ScenarioConfig config;
  ComponentId offset = 0;
  online::SloSpec slo;
};

std::vector<FleetApp> fleet(std::size_t ticks, std::uint64_t seed) {
  std::vector<FleetApp> apps(3);

  apps[0].name = "rubis";
  apps[0].config.kind = sim::AppKind::Rubis;
  apps[0].config.seed = seed;
  apps[0].config.faults = {fault(faults::FaultType::CpuHog, {3}, 2000, 1.35)};
  apps[0].offset = 0;

  apps[1].name = "streams";
  apps[1].config.kind = sim::AppKind::SystemS;
  apps[1].config.seed = seed + 24;
  apps[1].config.faults = {fault(faults::FaultType::CpuHog, {2}, 2300, 1.4)};
  apps[1].offset = 4;

  apps[2].name = "batch";
  apps[2].config.kind = sim::AppKind::Hadoop;
  apps[2].config.seed = seed - 22;
  apps[2].config.faults = {
      fault(faults::FaultType::InfiniteLoop, {0, 1, 2}, 3400)};
  apps[2].offset = 11;
  apps[2].slo.kind = online::SloSpec::Kind::Progress;

  for (FleetApp& app : apps) {
    app.config.duration_sec = ticks;  // the workload trace must cover the run
    if (app.slo.kind == online::SloSpec::Kind::Latency) {
      app.slo.latency_threshold_sec = sim::sloLatencyThreshold(app.config.kind);
      app.slo.sustain_sec = app.config.slo_sustain_sec;
    }
  }
  return apps;
}

/// Offline dependency discovery per application (the paper runs this ahead
/// of deployment). Capped to one simulated hour so the driver starts fast
/// even when the soak itself runs much longer.
netdep::DependencyGraph discoverFor(const FleetApp& app) {
  sim::ScenarioConfig config = app.config;
  config.duration_sec = std::min<std::size_t>(config.duration_sec, 3600);
  sim::Simulation sim(config);
  sim.runUntil(static_cast<TimeSec>(config.duration_sec));
  return netdep::discoverDependencies(sim.record());
}

std::string joinIds(const std::vector<ComponentId>& ids) {
  std::ostringstream out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ",";
    out << ids[i];
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t ticks = soakTicks(argc, argv);
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 77;

  std::printf("online_soak: 3 applications, %zu simulated seconds, seed %llu\n",
              ticks, static_cast<unsigned long long>(seed));

  const std::vector<FleetApp> apps = fleet(ticks, seed);

  online::OnlineMonitorConfig config;
  config.cooldown_sec = 600;
  config.worker_threads = 2;
  online::OnlineMonitor monitor(std::move(config));

  std::vector<std::unique_ptr<sim::StreamingSource>> sources;
  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  std::vector<std::size_t> app_index;
  ComponentId total_components = 0;
  for (const FleetApp& app : apps) {
    total_components += static_cast<ComponentId>(
        sim::makeAppSpec(app.config.kind).components.size());
  }
  for (std::size_t a = 0; a < apps.size(); ++a) {
    sources.push_back(
        std::make_unique<sim::StreamingSource>(apps[a].config, apps[a].offset));
    auto slave = std::make_unique<core::FChainSlave>(static_cast<HostId>(a));
    for (ComponentId id : sources.back()->componentIds()) {
      slave->addComponent(id, 0);
    }
    monitor.addSlave(slave.get());
    slaves.push_back(std::move(slave));
    app_index.push_back(monitor.addApplication(
        {apps[a].name, sources.back()->componentIds(), apps[a].slo}));

    // Per-application graphs, lifted into the global id space. System S
    // discovery legitimately finds nothing; keeping the graphs separate
    // preserves its chronology-only fallback (see OnlineMonitor docs).
    netdep::DependencyGraph local = discoverFor(apps[a]);
    netdep::DependencyGraph lifted(total_components);
    const auto& adjacency = local.adjacency();
    std::size_t edges = 0;
    for (ComponentId from = 0; from < adjacency.size(); ++from) {
      for (ComponentId to : adjacency[from]) {
        lifted.addEdge(apps[a].offset + from, apps[a].offset + to);
        ++edges;
      }
    }
    monitor.setDependencies(app_index.back(), lifted);
    std::printf("  [%s] %zu components, %zu discovered dependency edges\n",
                apps[a].name.c_str(), sources.back()->componentIds().size(),
                edges);
  }

  monitor.onIncident([&](const online::OnlineIncident& incident) {
    std::printf(
        "t=%5lld  INCIDENT %-8s tv=%lld trigger_delay=%llds "
        "localize=%.1fms pinpointed={%s}\n",
        static_cast<long long>(monitor.clock()), incident.app_name.c_str(),
        static_cast<long long>(incident.violation_time),
        static_cast<long long>(incident.queued_delay_sec),
        incident.localize_wall_ms,
        joinIds(incident.result.pinpointed).c_str());
  });

  const sim::StreamingSource::SampleSink sink =
      [&](const sim::StreamSample& sample) { monitor.ingest(sample); };
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const sim::StreamTick st = sources[a]->step(sink);
      monitor.observe(app_index[a], st);
    }
    monitor.pump();
  }
  monitor.drain();

  const auto snapshot = monitor.metrics().snapshot();
  std::printf("\nsoak summary (%zu ticks)\n", ticks);
  std::printf("  %-26s %10llu\n", "samples ingested",
              static_cast<unsigned long long>(
                  snapshot.counters.at("online.ingest_samples")));
  std::printf("  %-26s %10llu\n", "SLO latches",
              static_cast<unsigned long long>(
                  snapshot.counters.at("online.slo_latches")));
  std::printf("  %-26s %10llu (%llu queued, %llu dropped)\n",
              "localizations triggered",
              static_cast<unsigned long long>(
                  snapshot.counters.at("online.triggers")),
              static_cast<unsigned long long>(
                  snapshot.counters.at("online.incidents_queued")),
              static_cast<unsigned long long>(
                  snapshot.counters.at("online.incidents_dropped")));

  if (monitor.incidents().size() < apps.size()) {
    std::printf("FAIL: expected %zu incidents, saw %zu\n", apps.size(),
                monitor.incidents().size());
    return 1;
  }
  return 0;
}
