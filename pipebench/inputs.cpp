#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "common/rng.h"
#include "eval/cases.h"
#include "faults/fault.h"
#include "sim/injector.h"
#include "sim/mesh.h"

namespace pipebench {

namespace fc = fchain;

namespace {

/// The roster and the healthy fleet are fixed, not drawn from --seed, so
/// every run replays the same telemetry and verdict_hit_ratio is identical
/// across runs.
constexpr std::uint64_t kRosterSeed = 1;
constexpr std::uint64_t kFleetSeed = 1;

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

AppStream makeApp(std::string name, const fc::sim::ScenarioConfig& scenario) {
  AppStream app;
  app.name = std::move(name);
  app.scenario = scenario;
  return app;
}

/// Streams `telemetry.apps` side by side for up to `ticks` seconds, placing
/// each app's components after the previous app's. With
/// `stop_after_violation`, a single-app stream ends post_violation_sec past
/// the simulator's SLO violation, as sim::runScenario does.
void stream(Telemetry& telemetry, std::size_t ticks,
            bool stop_after_violation) {
  std::vector<fc::sim::StreamingSource> sources;
  sources.reserve(telemetry.apps.size());
  telemetry.components = 0;
  for (AppStream& app : telemetry.apps) {
    app.offset = static_cast<ComponentId>(telemetry.components);
    sources.emplace_back(app.scenario, app.offset);
    app.components = sources.back().componentCount();
    telemetry.components += app.components;
  }
  telemetry.samples.reserve(ticks * telemetry.components);
  telemetry.ticks = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t a = 0; a < sources.size(); ++a) {
      telemetry.apps[a].ticks.push_back(
          sources[a].step([&](const fc::sim::StreamSample& sample) {
            telemetry.samples.push_back(sample);
          }));
    }
    ++telemetry.ticks;
    if (stop_after_violation) {
      const auto tv = sources.front().simulation().violationTime();
      const auto& scenario = telemetry.apps.front().scenario;
      if (tv.has_value() &&
          sources.front().now() > *tv + static_cast<TimeSec>(
                                            scenario.post_violation_sec)) {
        break;
      }
    }
  }
  for (std::size_t a = 0; a < sources.size(); ++a) {
    telemetry.apps[a].record = sources[a].record();
  }
}

/// A faulted single-app recording; empty when the SLO never tripped.
Telemetry faultedRecording(std::string label,
                           const fc::sim::ScenarioConfig& scenario,
                           const fc::core::FChainConfig& fchain) {
  Telemetry telemetry;
  telemetry.apps.push_back(makeApp(std::move(label), scenario));
  AppStream& app = telemetry.apps.front();
  app.fchain = fchain;
  app.truth = fc::sim::groundTruth(scenario.faults);
  for (const fc::faults::FaultSpec& fault : scenario.faults) {
    app.external_fault |= fc::faults::isExternalFactor(fault.type);
  }
  app.fault_start = scenario.faults.front().start_time;
  stream(telemetry, scenario.duration_sec, /*stop_after_violation=*/true);
  if (!app.record.violation_time.has_value()) return {};
  return telemetry;
}

}  // namespace

std::vector<ComponentId> AppStream::componentIds() const {
  std::vector<ComponentId> ids(components);
  for (std::size_t i = 0; i < components; ++i) {
    ids[i] = offset + static_cast<ComponentId>(i);
  }
  return ids;
}

fc::online::AppSpec AppStream::appSpec() const {
  fc::online::AppSpec spec;
  spec.name = name;
  spec.components = componentIds();
  if (scenario.kind == fc::sim::AppKind::Hadoop) {
    spec.slo.kind = fc::online::SloSpec::Kind::Progress;
  } else {
    spec.slo.latency_threshold_sec =
        scenario.kind == fc::sim::AppKind::Mesh
            ? fc::sim::meshSloLatencyThreshold(scenario.mesh)
            : fc::sim::sloLatencyThreshold(scenario.kind);
    spec.slo.sustain_sec = scenario.slo_sustain_sec;
  }
  return spec;
}

Telemetry generateHealthyFleet(std::size_t ticks) {
  Telemetry telemetry;
  for (const fc::sim::AppKind kind :
       {fc::sim::AppKind::Rubis, fc::sim::AppKind::SystemS,
        fc::sim::AppKind::Hadoop, fc::sim::AppKind::Mesh}) {
    fc::sim::ScenarioConfig scenario;
    scenario.kind = kind;
    scenario.seed =
        fc::mixSeed(kFleetSeed, 0x4ea1ull, static_cast<std::uint64_t>(kind));
    scenario.duration_sec = ticks;
    if (kind == fc::sim::AppKind::Mesh) {
      scenario.mesh = fc::sim::meshConfigFor(120, kFleetSeed);
    }
    telemetry.apps.push_back(
        makeApp(std::string(fc::sim::appKindName(kind)), scenario));
  }
  stream(telemetry, ticks, /*stop_after_violation=*/false);
  return telemetry;
}

void shuffleIngestOrder(Telemetry& telemetry, std::uint64_t seed) {
  fc::Rng rng(fc::mixSeed(seed, 0x1a70ull));
  const std::size_t n = telemetry.components;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<fc::sim::StreamSample> tick(n);
  for (std::size_t t = 0; t < telemetry.ticks; ++t) {
    fc::sim::StreamSample* samples = telemetry.samples.data() + t * n;
    for (std::size_t i = 0; i < n; ++i) tick[i] = samples[order[i]];
    std::copy(tick.begin(), tick.end(), samples);
  }
}

std::vector<RosterEntry> generateRoster() {
  std::vector<fc::eval::FaultCase> cases = fc::eval::allPaperCases();
  for (fc::eval::FaultCase& extension : fc::eval::extensionCases()) {
    cases.push_back(std::move(extension));
  }

  std::vector<RosterEntry> roster;
  for (const fc::eval::FaultCase& fault_case : cases) {
    Telemetry recording;
    for (std::uint64_t attempt = 0; recording.apps.empty(); ++attempt) {
      if (attempt == 50) {
        throw std::runtime_error("roster: " + fault_case.label +
                                 " never trips its SLO");
      }
      const std::uint64_t seed =
          fc::mixSeed(kRosterSeed, fnv1a(fault_case.label), attempt);
      fc::Rng fault_rng(fc::mixSeed(seed, 0xfa17));
      fc::sim::ScenarioConfig scenario;
      scenario.kind = fault_case.kind;
      scenario.seed = seed;
      scenario.duration_sec = fault_case.duration_sec;
      scenario.faults = fault_case.make_faults(
          fault_rng, fc::sim::makeAppSpec(fault_case.kind));
      recording = faultedRecording(fault_case.label, scenario,
                                   fault_case.fchain_config);
    }
    // Hadoop DiskHog runs the 500 s look-back: its verdicts form the slow
    // latency mode, weighted so p95 falls inside it.
    const std::size_t weight = fault_case.fchain_config.lookback_sec > 100 ? 2 : 1;
    roster.push_back({std::move(recording), weight});
  }

  fc::sim::ScenarioConfig mesh;
  mesh.kind = fc::sim::AppKind::Mesh;
  mesh.mesh = fc::sim::meshConfigFor(50, kRosterSeed);
  mesh.seed = kRosterSeed + 70;
  fc::faults::FaultSpec bottleneck;
  bottleneck.type = fc::faults::FaultType::Bottleneck;
  bottleneck.targets = {fc::sim::makeMicroMeshSpec(mesh.mesh).reference_path.back()};
  bottleneck.start_time = 1300;
  bottleneck.intensity = 1.5;
  mesh.faults = {bottleneck};
  Telemetry recording = faultedRecording("Mesh50/StoreBottleneck", mesh, {});
  if (recording.apps.empty()) {
    throw std::runtime_error("roster: the mesh bottleneck never trips its SLO");
  }
  // Weight 5 of 21 per cycle: the mesh mode sits between p50 and p95.
  roster.push_back({std::move(recording), 5});
  return roster;
}

fc::netdep::DependencyGraph discoverLifted(const AppStream& app,
                                           std::size_t total_components) {
  const fc::netdep::DependencyGraph local =
      fc::netdep::discoverDependencies(app.record);
  fc::netdep::DependencyGraph lifted(total_components);
  for (ComponentId from = 0; from < local.adjacency().size(); ++from) {
    for (const ComponentId to : local.adjacency()[from]) {
      lifted.addEdge(app.offset + from, app.offset + to);
    }
  }
  return lifted;
}

}  // namespace pipebench
