// Pre-generated benchmark inputs: simulator telemetry, produced before any
// timer starts so simulator time stays out of every number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fchain/config.h"
#include "netdep/dependency.h"
#include "online/monitor.h"
#include "sim/simulator.h"
#include "sim/stream.h"

namespace pipebench {

using fchain::ComponentId;
using fchain::TimeSec;

/// One application inside a telemetry stream.
struct AppStream {
  std::string name;
  fchain::sim::ScenarioConfig scenario;
  fchain::core::FChainConfig fchain;
  ComponentId offset = 0;  ///< first global component id
  std::size_t components = 0;
  std::vector<fchain::sim::StreamTick> ticks;  ///< SLO signal per tick
  /// The app's run record (local ids): the dependency-discovery input.
  fchain::sim::RunRecord record;
  /// Injected truth (global ids, sorted), for faulted recordings.
  std::vector<ComponentId> truth;
  bool external_fault = false;
  TimeSec fault_start = 0;

  std::vector<ComponentId> componentIds() const;
  fchain::online::AppSpec appSpec() const;
};

/// Applications streamed side by side, tick-major: samples[t * components
/// + i] is the i-th sample of tick t (component order, unless
/// shuffleIngestOrder reordered it).
struct Telemetry {
  std::vector<AppStream> apps;
  std::size_t components = 0;
  std::size_t ticks = 0;
  std::vector<fchain::sim::StreamSample> samples;

  const fchain::sim::StreamSample* tick(std::size_t t) const {
    return samples.data() + t * components;
  }
};

/// Healthy RUBiS + System S + Hadoop + a 120-service mesh (140 VMs) for
/// `ticks` seconds. The telemetry is fixed, like the incident roster, so
/// every run's verdicts are the same.
Telemetry generateHealthyFleet(std::size_t ticks);

/// Draws one ingest order from `seed` and applies it to every tick. Slave
/// state is per component, so verdicts do not depend on it.
void shuffleIngestOrder(Telemetry& telemetry, std::uint64_t seed);

/// One weighted entry of the incident roster.
struct RosterEntry {
  Telemetry recording;
  std::size_t weight = 1;
};

/// The fixed incident roster: every case of eval::allPaperCases() +
/// extensionCases() and a 50-service mesh with a data-store Bottleneck,
/// each simulated until its SLO trips (a trial whose fault does not trip
/// the SLO is redrawn, as the evaluation runner skips it).
std::vector<RosterEntry> generateRoster();

/// An app's discovered graph lifted into the stream's global id space.
fchain::netdep::DependencyGraph discoverLifted(const AppStream& app,
                                               std::size_t total_components);

}  // namespace pipebench
