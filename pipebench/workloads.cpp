#include "workloads.h"

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

#include "campaign/episode.h"
#include "common/rng.h"
#include "fchain/pinpoint.h"
#include "fchain/slave.h"
#include "fchain/slave_service.h"
#include "fleet/aggregator.h"
#include "fleet/monitor.h"
#include "inputs.h"
#include "online/monitor.h"
#include "runtime/socket_endpoint.h"
#include "runtime/wire.h"
#include "tracer.h"

namespace pipebench {

namespace fc = fchain;

namespace {

/// Stream lengths are fixed per workload: slave history grows with every
/// VM-second, so the replayed length bounds peak memory.
constexpr std::size_t kFleetTicks = 2400;  ///< ingest_local
constexpr std::size_t kUnixTicks = 300;    ///< ingest_unix (stream prefix)
constexpr std::size_t kSlaves = 3;
constexpr std::size_t kMinVerdicts = 200;  ///< >= 10 beyond p95
/// Ticks per replay unit of the ingest workloads.
constexpr std::size_t kUnitTicks = 25;
/// Rounds of on-demand verdicts after each pass of the ingest workloads.
constexpr std::size_t kProbeRounds = 3;
constexpr std::size_t kSpansLoggedPerLayer = 10000;
constexpr int kDirectRepeats = 8;  ///< direct pinpoint/merge calls per verdict
/// No pass starts once the process has run this long, so a run stays
/// bounded even when the program gets much slower.
constexpr double kDeadlineS = 140.0;
const char* const kOutDir = ".pipebench";

std::int64_t elapsedNs(std::int64_t start_ns) { return nowNs() - start_ns; }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Bit-exact verdict digests ---------------------------------------------

void put(std::ostringstream& out, double value) {
  out << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec << ',';
}

void put(std::ostringstream& out, const fc::core::ComponentFinding& finding) {
  out << finding.component << '@' << finding.onset << '/'
      << static_cast<int>(finding.trend) << '[';
  for (const fc::core::MetricFinding& metric : finding.metrics) {
    out << static_cast<int>(metric.metric) << ':' << metric.onset << ':'
        << metric.change_point << ':' << static_cast<int>(metric.trend) << ':';
    put(out, metric.prediction_error);
    put(out, metric.expected_error);
  }
  out << ']';
}

std::string digest(const fc::core::PinpointResult& result) {
  std::ostringstream out;
  out << "p=";
  for (const ComponentId id : result.pinpointed) out << id << ',';
  out << "|x=" << result.external_factor << '/'
      << static_cast<int>(result.external_trend) << "|c=";
  put(out, result.coverage);
  out << "|u=";
  for (const ComponentId id : result.unanalyzed) out << id << ',';
  out << "|chain=";
  for (const auto& finding : result.chain) put(out, finding);
  return out.str();
}

std::string digest(
    const std::vector<std::optional<fc::core::ComponentFinding>>& findings) {
  std::ostringstream out;
  for (const auto& finding : findings) {
    if (finding.has_value()) {
      put(out, *finding);
    } else {
      out << '-';
    }
    out << ';';
  }
  return out.str();
}

// --- Shared run state --------------------------------------------------------

/// Per-layer sums over the traced passes.
struct LayerSums {
  std::uint64_t bundles = 0;
  std::uint64_t observed_app_ticks = 0;
  std::int64_t replay_wall_ns = 0;
  std::int64_t covered_ns = 0;
  std::uint64_t frames = 0;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
  std::uint64_t codec_calls = 0;
  std::uint64_t wire_bytes = 0;
  std::int64_t pinpoint_ns = 0;
  std::uint64_t pinpoint_calls = 0;
  std::int64_t merge_ns = 0;
  std::uint64_t merge_calls = 0;
  std::uint64_t fanouts = 0;
  std::uint64_t fleet_verdicts = 0;
};

struct Context {
  Context(const RunOptions& run_options, RunResult& run_result)
      : options(run_options), result(run_result) {}

  const RunOptions& options;
  RunResult& result;
  Tracer tracer{kSpansLoggedPerLayer};
  LayerSums sums;
  /// Reference verdict digest per verdict slot, set on first sight (the
  /// warm-up pass) and required of every repeat.
  std::vector<std::string> reference;

  /// Checks one verdict against its slot's reference; a mismatch fails.
  void checkRepeat(std::size_t slot, const std::string& got,
                   const std::string& what) {
    if (reference.size() <= slot) reference.resize(slot + 1);
    ++result.attempted;
    if (reference[slot].empty()) {
      reference[slot] = got;
    } else if (reference[slot] != got) {
      result.fail(what + ": verdict differs from an earlier repeat");
    }
  }

  /// Times kDirectRepeats direct pinpoint calls on a verdict's own findings.
  void timePinpoint(const fc::core::FChainConfig& config,
                    const fc::core::PinpointResult& verdict,
                    std::size_t total_components,
                    const fc::netdep::DependencyGraph& graph) {
    const fc::core::IntegratedPinpointer pinpointer(config);
    const std::size_t analyzed = total_components - verdict.unanalyzed.size();
    const std::int64_t start = nowNs();
    for (int i = 0; i < kDirectRepeats; ++i) {
      (void)pinpointer.pinpoint(verdict.chain, total_components, &graph,
                                analyzed);
    }
    sums.pinpoint_ns += elapsedNs(start);
    sums.pinpoint_calls += kDirectRepeats;
  }
};

std::size_t counterValue(fc::obs::MetricRegistry& registry,
                         std::string_view name) {
  return registry.counter(name).value();
}

/// Feeds one tick's bundles to an OnlineMonitor or FleetMonitor, with a
/// span around each ingest call when traced.
template <typename Monitor>
void ingestTick(Monitor& monitor, const fc::sim::StreamSample* samples,
                std::size_t count, Tracer* tracer) {
  for (std::size_t i = 0; i < count; ++i) {
    if (tracer != nullptr) tracer->begin(Layer::OnlineIngest);
    monitor.ingest(samples[i]);
    if (tracer != nullptr) tracer->end();
  }
}

// --- ingest_local / ingest_unix ---------------------------------------------

enum class Transport { Local, Unix };

/// One set-up of the healthy fleet: 3 slaves behind one OnlineMonitor,
/// either in-process or each behind a SocketEndpoint to a SlaveService.
/// Members are declared so that destruction runs monitor -> endpoints ->
/// services (joining their threads) -> slaves.
struct HealthyPipeline {
  std::vector<std::vector<ComponentId>> slave_components;
  std::vector<std::unique_ptr<fc::core::FChainSlave>> slaves;
  fc::obs::MetricRegistry server_registry;
  std::vector<std::unique_ptr<fc::core::SlaveService>> services;
  fc::obs::MetricRegistry client_registry;
  std::vector<std::shared_ptr<fc::runtime::SocketEndpoint>> sockets;
  std::vector<fc::netdep::DependencyGraph> graphs;  ///< per app
  fc::netdep::DependencyGraph cluster;              ///< union of graphs
  std::unique_ptr<fc::online::OnlineMonitor> monitor;
  std::vector<std::size_t> app_index;
};

std::string socketPath(std::size_t slave) {
  return std::string(kOutDir) + "/" + std::to_string(::getpid()) + "-s" +
         std::to_string(slave) + ".sock";
}

std::unique_ptr<HealthyPipeline> buildHealthy(Context& ctx,
                                              const Telemetry& telemetry,
                                              Transport transport,
                                              Tracer* tracer) {
  auto pipe = std::make_unique<HealthyPipeline>();
  pipe->cluster = fc::netdep::DependencyGraph(telemetry.components);
  for (const AppStream& app : telemetry.apps) {
    pipe->graphs.push_back(discoverLifted(app, telemetry.components));
    const auto& adjacency = pipe->graphs.back().adjacency();
    for (ComponentId from = 0; from < adjacency.size(); ++from) {
      for (const ComponentId to : adjacency[from]) {
        pipe->cluster.addEdge(from, to);
      }
    }
  }

  pipe->slave_components.resize(kSlaves);
  for (std::size_t k = 0; k < kSlaves; ++k) {
    pipe->slaves.push_back(std::make_unique<fc::core::FChainSlave>(
        static_cast<fc::HostId>(k)));
  }
  for (ComponentId id = 0; id < telemetry.components; ++id) {
    pipe->slaves[id % kSlaves]->addComponent(id, 0);
    pipe->slave_components[id % kSlaves].push_back(id);
  }

  pipe->monitor = std::make_unique<fc::online::OnlineMonitor>();
  for (std::size_t k = 0; k < kSlaves; ++k) {
    std::shared_ptr<fc::runtime::SlaveEndpoint> endpoint;
    if (transport == Transport::Local) {
      endpoint = std::make_shared<fc::runtime::LocalEndpoint>(
          pipe->slaves[k].get());
    } else {
      fc::core::SlaveServiceConfig service_config;
      service_config.listen = fc::runtime::SocketAddress::unixPath(socketPath(k));
      service_config.registry = &pipe->server_registry;
      pipe->services.push_back(std::make_unique<fc::core::SlaveService>(
          *pipe->slaves[k], service_config));
      pipe->services.back()->start();

      fc::runtime::SocketEndpointConfig endpoint_config;
      endpoint_config.address = pipe->services.back()->address();
      endpoint_config.registry = &pipe->client_registry;
      auto socket = std::make_shared<fc::runtime::SocketEndpoint>(endpoint_config);
      ++ctx.result.attempted;  // connect + handshake
      if (socket->listComponents().status != fc::runtime::EndpointStatus::Ok) {
        ctx.result.fail("slave " + std::to_string(k) + ": handshake failed");
      }
      pipe->sockets.push_back(socket);
      endpoint = socket;
    }
    if (tracer != nullptr) {
      endpoint = std::make_shared<TimingEndpoint>(
          endpoint, *tracer,
          transport == Transport::Local ? Layer::SlaveIngest : Layer::IngestRpc);
    }
    pipe->monitor->addEndpoint(endpoint, pipe->slave_components[k]);
  }
  for (std::size_t a = 0; a < telemetry.apps.size(); ++a) {
    pipe->app_index.push_back(
        pipe->monitor->addApplication(telemetry.apps[a].appSpec()));
    pipe->monitor->setDependencies(pipe->app_index.back(), pipe->graphs[a]);
  }
  pipe->monitor->setDependencies(pipe->cluster);
  return pipe;
}

/// Direct timed calls to the wire codec on the pass's own ingest requests.
void timeWireCodec(Context& ctx, const Telemetry& telemetry) {
  const std::size_t reply_bytes =
      fc::runtime::wire::encodeIngestReply(
          {fc::runtime::EndpointStatus::Ok, 0.0})
          .size();
  std::vector<std::vector<std::uint8_t>> frames(telemetry.components);
  for (std::size_t t = 0; t < telemetry.ticks; ++t) {
    const fc::sim::StreamSample* samples = telemetry.tick(t);
    const std::int64_t encode_start = nowNs();
    for (std::size_t i = 0; i < telemetry.components; ++i) {
      fc::runtime::IngestRequest request;
      request.component = samples[i].component;
      request.t = samples[i].t;
      request.sample = samples[i].values;
      frames[i] = fc::runtime::wire::encodeIngestRequest(request);
    }
    const std::int64_t decode_start = nowNs();
    for (const auto& frame : frames) {
      (void)fc::runtime::wire::decodeMessage(frame);
    }
    ctx.sums.decode_ns += elapsedNs(decode_start);
    ctx.sums.encode_ns += decode_start - encode_start;
    for (const auto& frame : frames) {
      ctx.sums.wire_bytes += frame.size() + reply_bytes;
    }
    ctx.sums.codec_calls += telemetry.components;
  }
}

/// Unix-fed slaves must analyze bit-identically to slaves fed the same
/// prefix in-process. The in-process feed is the direct-call measurement of
/// the slave ingest layer on this workload.
void checkUnixIdentity(Context& ctx, const Telemetry& telemetry,
                       HealthyPipeline& pipe, Tracer* tracer) {
  std::vector<std::unique_ptr<fc::core::FChainSlave>> local;
  for (std::size_t k = 0; k < kSlaves; ++k) {
    local.push_back(std::make_unique<fc::core::FChainSlave>(
        static_cast<fc::HostId>(k)));
    for (const ComponentId id : pipe.slave_components[k]) {
      local.back()->addComponent(id, 0);
    }
  }
  for (std::size_t t = 0; t < telemetry.ticks; ++t) {
    const fc::sim::StreamSample* samples = telemetry.tick(t);
    for (std::size_t i = 0; i < telemetry.components; ++i) {
      fc::core::FChainSlave& slave = *local[samples[i].component % kSlaves];
      if (tracer != nullptr) tracer->begin(Layer::SlaveIngest);
      slave.ingestAt(samples[i].component, samples[i].t, samples[i].values);
      if (tracer != nullptr) tracer->end();
    }
  }
  const TimeSec last = static_cast<TimeSec>(telemetry.ticks - 1);
  for (std::size_t k = 0; k < kSlaves; ++k) {
    fc::runtime::AnalyzeBatchRequest request;
    request.components = pipe.slave_components[k];
    request.violation_time = last;
    const auto over_wire = pipe.sockets[k]->analyzeBatch(request);
    const auto in_process =
        local[k]->analyzeBatch(pipe.slave_components[k], last);
    ++ctx.result.attempted;
    if (over_wire.status != fc::runtime::EndpointStatus::Ok ||
        digest(over_wire.findings) != digest(in_process)) {
      ctx.result.fail("slave " + std::to_string(k) +
                      ": unix-fed analyzeBatch differs from in-process");
    }
  }
}

void healthyPass(Context& ctx, const Telemetry& telemetry, Transport transport,
                 Tracer* tracer, bool timed) {
  RunResult& result = ctx.result;
  const std::size_t ticks = telemetry.ticks;
  const std::int64_t setup_start = nowNs();
  std::unique_ptr<HealthyPipeline> pipe =
      buildHealthy(ctx, telemetry, transport, tracer);
  const double setup_s = static_cast<double>(elapsedNs(setup_start)) / 1e9;
  fc::online::OnlineMonitor& monitor = *pipe->monitor;

  const std::size_t failures_before =
      counterValue(monitor.metrics(), "online.ingest_failures");
  const std::size_t frames_before =
      counterValue(pipe->client_registry, "runtime.socket.frames_tx");
  const std::int64_t covered_before = ctx.tracer.topLevelNs();

  // The replay loop: ingest -> observe -> pump per tick, timed per unit of
  // kUnitTicks ticks.
  std::vector<RunResult::ReplayUnit>& units =
      tracer != nullptr ? result.traced_replay : result.replay;
  const std::int64_t loop_start = nowNs();
  std::int64_t unit_start = loop_start;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t % kUnitTicks == 0 && t > 0) {
      const std::int64_t now = nowNs();
      if (timed) {
        units.push_back({t / kUnitTicks - 1, kUnitTicks * telemetry.components,
                         static_cast<double>(now - unit_start)});
      }
      unit_start = now;
    }
    ingestTick(monitor, telemetry.tick(t), telemetry.components, tracer);
    if (tracer != nullptr) tracer->begin(Layer::Observe);
    std::size_t tick_fired = 0;
    for (std::size_t a = 0; a < telemetry.apps.size(); ++a) {
      tick_fired += monitor.observe(pipe->app_index[a], telemetry.apps[a].ticks[t]);
    }
    tick_fired += monitor.pump();
    if (tracer != nullptr) {
      tracer->end(tick_fired > 0 ? Layer::Verdict : Layer::Observe);
      if (tick_fired == 0) ctx.sums.observed_app_ticks += telemetry.apps.size();
    }
  }
  const std::int64_t loop_end = nowNs();
  if (timed) {
    const std::size_t tail = ticks - (ticks - 1) / kUnitTicks * kUnitTicks;
    units.push_back({(ticks - 1) / kUnitTicks, tail * telemetry.components,
                     static_cast<double>(loop_end - unit_start)});
  }
  const std::uint64_t bundles = ticks * telemetry.components;
  const std::size_t frames =
      counterValue(pipe->client_registry, "runtime.socket.frames_tx") -
      frames_before;

  // On-demand verdicts at the last tick, in kProbeRounds rounds: each app,
  // then the whole fleet. Nothing latched, so each is timed as its localize
  // call alone. A healthy stream's correct verdict blames nothing.
  const TimeSec last = static_cast<TimeSec>(ticks - 1);
  std::vector<ComponentId> everything(telemetry.components);
  for (ComponentId id = 0; id < telemetry.components; ++id) everything[id] = id;
  const std::size_t probes = telemetry.apps.size() + 1;
  for (std::size_t round_probe = 0; round_probe < kProbeRounds * probes;
       ++round_probe) {
    const std::size_t probe = round_probe % probes;
    const bool fleet_wide = probe == telemetry.apps.size();
    const std::vector<ComponentId> components =
        fleet_wide ? everything : telemetry.apps[probe].componentIds();
    const fc::netdep::DependencyGraph& graph =
        fleet_wide ? pipe->cluster : pipe->graphs[probe];
    monitor.master().setDependencies(graph);
    if (tracer != nullptr) tracer->begin(Layer::Verdict);
    const std::int64_t start = nowNs();
    const fc::core::PinpointResult verdict =
        monitor.master().localize(components, last);
    const std::int64_t end = nowNs();
    if (tracer != nullptr) tracer->end();

    ctx.checkRepeat(probe, digest(verdict),
                    fleet_wide ? std::string("fleet probe")
                               : telemetry.apps[probe].name + " probe");
    if (timed) {
      ++result.verdicts;
      if (verdict.pinpointed.empty() && !verdict.external_factor) ++result.hits;
      if (tracer == nullptr) {
        result.verdict_ms.emplace_back(probe,
                                       static_cast<double>(end - start) / 1e6);
      }
    }
    if (tracer != nullptr && round_probe < probes) {
      ctx.timePinpoint({}, verdict, components.size(), graph);
    }
  }
  const std::int64_t probes_end = nowNs();

  result.attempted += bundles + ticks * telemetry.apps.size();
  if (const std::size_t incidents = monitor.incidents().size(); incidents > 0) {
    result.fail(std::to_string(incidents) +
                    " incident(s) fired on a healthy stream",
                incidents);
  }
  const std::size_t lost =
      counterValue(monitor.metrics(), "online.ingest_failures") - failures_before;
  if (lost > 0) {
    result.fail(std::to_string(lost) + " ingest RPC(s) did not return Ok",
                lost);
  }

  if (tracer != nullptr) {
    ctx.sums.bundles += bundles;
    ctx.sums.replay_wall_ns += probes_end - loop_start;
    ctx.sums.covered_ns += ctx.tracer.topLevelNs() - covered_before;
    ctx.sums.frames += frames;
  }
  if (transport == Transport::Unix) {
    checkUnixIdentity(ctx, telemetry, *pipe, tracer);
    if (tracer != nullptr) timeWireCodec(ctx, telemetry);
  }

  if (timed) {
    result.setup_s.push_back(setup_s);
    result.bundles += bundles;
  }
}

// --- incident_mix ------------------------------------------------------------

/// Times kDirectRepeats direct FleetAggregator::merge calls on partials
/// rebuilt from the verdict's own findings, split by the fleet's ring.
void timeMerge(Context& ctx, const fc::fleet::FleetMonitor& fleet,
               const fc::core::FChainConfig& config,
               const fc::core::PinpointResult& verdict,
               const std::vector<ComponentId>& components,
               const fc::netdep::DependencyGraph& graph) {
  const fc::fleet::HashRing& ring = fleet.fleet().ring();
  std::vector<fc::fleet::ShardPartial> partials =
      fc::fleet::partitionByOwner(ring, components);
  auto partialOf = [&](ComponentId id) -> fc::core::PinpointResult& {
    const fc::fleet::ShardId owner = ring.ownerOfComponent(id);
    for (auto& partial : partials) {
      if (partial.shard == owner) return partial.result;
    }
    return partials.front().result;  // unreachable: every id has an owner
  };
  for (const auto& finding : verdict.chain) {
    partialOf(finding.component).chain.push_back(finding);
  }
  for (const ComponentId id : verdict.unanalyzed) {
    partialOf(id).unanalyzed.push_back(id);
  }
  const fc::fleet::FleetAggregator aggregator(config);
  const std::int64_t start = nowNs();
  for (int i = 0; i < kDirectRepeats; ++i) {
    (void)aggregator.merge(partials, components.size(), &graph);
  }
  ctx.sums.merge_ns += elapsedNs(start);
  ctx.sums.merge_calls += kDirectRepeats;
}

struct RecordingTimes {
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t bundles = 0;
};

/// Replays one roster recording into a fresh 2-shard FleetMonitor until its
/// first incident fires.
RecordingTimes replayRecording(Context& ctx, const RosterEntry& entry,
                               std::size_t slot, Tracer* tracer, bool timed) {
  RunResult& result = ctx.result;
  const Telemetry& recording = entry.recording;
  const AppStream& app = recording.apps.front();
  RecordingTimes times;

  const std::int64_t setup_start = nowNs();
  const fc::netdep::DependencyGraph graph =
      discoverLifted(app, recording.components);
  std::array<std::unique_ptr<fc::core::FChainSlave>, 2> slaves;
  std::array<std::vector<ComponentId>, 2> slave_components;
  for (std::size_t k = 0; k < slaves.size(); ++k) {
    slaves[k] = std::make_unique<fc::core::FChainSlave>(
        static_cast<fc::HostId>(k), app.fchain);
  }
  for (ComponentId id = 0; id < recording.components; ++id) {
    slaves[id % 2]->addComponent(id, 0);
    slave_components[id % 2].push_back(id);
  }
  fc::fleet::FleetMonitorConfig config;
  config.shards = 2;
  config.monitor.fchain = app.fchain;
  fc::fleet::FleetMonitor fleet(config);
  for (std::size_t k = 0; k < slaves.size(); ++k) {
    std::shared_ptr<fc::runtime::SlaveEndpoint> endpoint =
        std::make_shared<fc::runtime::LocalEndpoint>(slaves[k].get());
    if (tracer != nullptr) {
      endpoint = std::make_shared<TimingEndpoint>(endpoint, *tracer,
                                                  Layer::SlaveIngest);
    }
    fleet.addEndpoint(endpoint, slave_components[k]);
  }
  const std::size_t app_index = fleet.addApplication(app.appSpec());
  fleet.setDependencies(app_index, graph);
  std::int64_t verdict_end = 0;
  fleet.onIncident(
      [&verdict_end](const fc::online::OnlineIncident&) { verdict_end = nowNs(); });
  times.setup_ns = elapsedNs(setup_start);

  auto ingestFailures = [&fleet] {
    std::size_t total = 0;
    for (fc::fleet::ShardId s = 0; s < fleet.shardCount(); ++s) {
      total += counterValue(fleet.shardMonitor(s).metrics(),
                            "online.ingest_failures");
    }
    return total;
  };
  const std::size_t failures_before = ingestFailures();
  const std::size_t fanouts_before =
      counterValue(fleet.fleet().metrics(), "fleet.shard_fanouts");
  const std::int64_t covered_before = ctx.tracer.topLevelNs();

  const std::int64_t loop_start = nowNs();
  std::int64_t tick_start = loop_start;
  std::size_t t = 0;
  for (; t < recording.ticks; ++t) {
    tick_start = nowNs();
    ingestTick(fleet, recording.tick(t), recording.components, tracer);
    if (tracer != nullptr) tracer->begin(Layer::Observe);
    std::size_t fired = fleet.observe(app_index, app.ticks[t]) ? 1 : 0;
    fired += fleet.pump();
    if (tracer != nullptr) {
      tracer->end(fired > 0 ? Layer::Verdict : Layer::Observe);
      if (fired == 0) ++ctx.sums.observed_app_ticks;
    }
    if (!fleet.incidents().empty()) break;
  }
  const std::int64_t loop_end = nowNs();
  times.wall_ns = loop_end - loop_start;
  times.bundles = std::min(t + 1, recording.ticks) * recording.components;

  result.attempted += times.bundles + 1;  // + the recording's incident
  const std::size_t lost = ingestFailures() - failures_before;
  if (lost > 0) {
    result.fail(app.name + ": " + std::to_string(lost) +
                    " ingest RPC(s) did not return Ok",
                lost);
  }
  if (fleet.incidents().empty()) {
    result.fail(app.name + ": the recording's incident never fired");
    return times;
  }

  const fc::online::OnlineIncident& incident = fleet.incidents().front();
  ctx.checkRepeat(slot, digest(incident.result), app.name);
  if (timed) {
    fc::campaign::IncidentFacts facts;
    facts.fired = true;
    facts.violation_time = incident.violation_time;
    facts.external_verdict = incident.result.external_factor;
    facts.pinpointed = incident.result.pinpointed;
    facts.coverage = incident.result.coverage;
    facts.watchdog_trips = incident.watchdog_trips_delta;
    facts.deadline_skips = incident.deadline_skips_delta;
    const fc::eval::Outcome outcome = fc::campaign::classify(
        app.truth, app.external_fault, app.fault_start, facts);
    ++result.verdicts;
    if (outcome == fc::eval::Outcome::Localized ||
        outcome == fc::eval::Outcome::ExternalCauseCorrect) {
      ++result.hits;
    }
    if (tracer == nullptr) {
      result.verdict_ms.emplace_back(
          slot, static_cast<double>(verdict_end - tick_start) / 1e6);
    }
    (tracer != nullptr ? result.traced_replay : result.replay)
        .push_back({slot, times.bundles, static_cast<double>(times.wall_ns)});
  }
  if (tracer != nullptr) {
    ctx.sums.bundles += times.bundles;
    ctx.sums.replay_wall_ns += times.wall_ns;
    ctx.sums.covered_ns += ctx.tracer.topLevelNs() - covered_before;
    ctx.sums.fanouts +=
        counterValue(fleet.fleet().metrics(), "fleet.shard_fanouts") -
        fanouts_before;
    ++ctx.sums.fleet_verdicts;
    const std::vector<ComponentId> components = app.componentIds();
    ctx.timePinpoint(app.fchain, incident.result, components.size(), graph);
    timeMerge(ctx, fleet, app.fchain, incident.result, components, graph);
  }
  return times;
}

/// One pass = one cycle through the weighted roster, in an order shuffled
/// from the seed (the warm-up visits each recording once, in roster order).
void incidentPass(Context& ctx, const std::vector<RosterEntry>& roster,
                  std::size_t pass, Tracer* tracer, bool timed) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    order.insert(order.end(), timed ? roster[i].weight : 1, i);
  }
  if (timed) {
    fc::Rng rng(fc::mixSeed(ctx.options.seed, 0xc1c1eull, pass));
    std::shuffle(order.begin(), order.end(), rng);
  }
  RecordingTimes total;
  for (const std::size_t index : order) {
    const RecordingTimes times =
        replayRecording(ctx, roster[index], index, tracer, timed);
    total.setup_ns += times.setup_ns;
    total.bundles += times.bundles;
  }
  if (timed) {
    RunResult& result = ctx.result;
    result.setup_s.push_back(static_cast<double>(total.setup_ns) / 1e9);
    result.bundles += total.bundles;
  }
}

// --- Run loop ----------------------------------------------------------------

double perUnit(double total, std::uint64_t count) {
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

void finishLayers(Context& ctx) {
  RunResult& r = ctx.result;
  const Tracer& tracer = ctx.tracer;
  const LayerSums& s = ctx.sums;
  const LayerTotals& slave = tracer.totals(Layer::SlaveIngest);
  const LayerTotals& ingest = tracer.totals(Layer::OnlineIngest);
  const LayerTotals& rpc = tracer.totals(Layer::IngestRpc);
  const LayerTotals& observe = tracer.totals(Layer::Observe);
  const LayerTotals& verdict = tracer.totals(Layer::Verdict);
  const LayerTotals& analyze = tracer.totals(Layer::Analyze);
  r.slave_ingest_ns = perUnit(slave.total_ns, slave.spans);
  r.online_ingest_self_ns = perUnit(ingest.self_ns, ingest.spans);
  r.observe_ns = perUnit(observe.total_ns, s.observed_app_ticks);
  r.ingest_rpc_ns = perUnit(rpc.total_ns, rpc.spans);
  r.frames_per_bundle = perUnit(s.frames, s.bundles);
  r.wire_encode_ns = perUnit(s.encode_ns, s.codec_calls);
  r.wire_decode_ns = perUnit(s.decode_ns, s.codec_calls);
  r.wire_bytes_per_bundle = perUnit(s.wire_bytes, s.codec_calls);
  r.selector_us_per_component =
      perUnit(analyze.total_ns / 1e3, tracer.analyzed_components);
  r.selector_finding_ratio = perUnit(tracer.findings, tracer.analyzed_components);
  r.master_self_ms = perUnit(verdict.self_ns / 1e6, verdict.spans);
  r.pinpoint_us = perUnit(s.pinpoint_ns / 1e3, s.pinpoint_calls);
  r.merge_us = perUnit(s.merge_ns / 1e3, s.merge_calls);
  r.fanouts_per_verdict = perUnit(s.fanouts, s.fleet_verdicts);
  r.layer_coverage =
      perUnit(s.covered_ns, static_cast<std::uint64_t>(s.replay_wall_ns));
}

}  // namespace

void RunResult::fail(std::string note, std::uint64_t count) {
  failed += count;
  if (failure_notes.size() < 8) failure_notes.push_back(std::move(note));
}

bool knownWorkload(const std::string& name) {
  return name == "ingest_local" || name == "ingest_unix" ||
         name == "incident_mix";
}

RunResult runWorkload(const RunOptions& options) {
  const std::int64_t process_start = nowNs();
  RunResult result;
  Context ctx(options, result);
  std::filesystem::create_directories(kOutDir);

  // Inputs first, outside every timer.
  const std::int64_t generation_start = nowNs();
  Telemetry fleet;
  std::vector<RosterEntry> roster;
  if (options.workload == "incident_mix") {
    roster = generateRoster();
  } else {
    fleet = generateHealthyFleet(
        options.workload == "ingest_unix" ? kUnixTicks : kFleetTicks);
    shuffleIngestOrder(fleet, options.seed);
  }
  result.generation_s = static_cast<double>(elapsedNs(generation_start)) / 1e9;

  std::size_t pass_index = 0;
  auto runPass = [&](Tracer* tracer, bool timed) {
    if (options.workload == "incident_mix") {
      incidentPass(ctx, roster, pass_index, tracer, timed);
    } else {
      const bool over_socket = options.workload == "ingest_unix";
      healthyPass(ctx, fleet,
                  over_socket ? Transport::Unix : Transport::Local, tracer,
                  timed);
    }
    ++pass_index;
  };

  // Warm-up: sizes the analysis scratch and fixes the reference verdicts.
  const std::int64_t warmup_start = nowNs();
  runPass(nullptr, /*timed=*/false);
  result.warmup_s = static_cast<double>(elapsedNs(warmup_start)) / 1e9;
  result.peak_rss_mb = peakRssMb();

  const std::int64_t measure_start = nowNs();
  std::size_t untraced = 0;
  std::size_t traced = 0;
  const bool needs_verdicts = options.workload == "incident_mix" && !options.trace;
  for (;;) {
    // Trace runs alternate untraced and traced passes, so drift cancels in
    // the overhead ratio.
    const bool trace_this = options.trace && (untraced + traced) % 2 == 1;
    runPass(trace_this ? &ctx.tracer : nullptr, /*timed=*/true);
    ++(trace_this ? traced : untraced);
    const double measured_s =
        static_cast<double>(elapsedNs(measure_start)) / 1e9;
    const double process_s =
        static_cast<double>(elapsedNs(process_start)) / 1e9;
    const bool enough_passes =
        options.trace ? (untraced >= 2 && traced >= 2) : untraced >= 3;
    const bool enough_verdicts =
        !needs_verdicts || result.verdict_ms.size() >= kMinVerdicts;
    if (process_s >= kDeadlineS) break;
    if (measured_s >= options.seconds && enough_passes && enough_verdicts) break;
  }
  result.passes = untraced + traced;

  if (options.trace) {
    finishLayers(ctx);
    result.trace_file = std::string(kOutDir) + "/trace-" + options.workload +
                        "-" + std::to_string(options.seed) + ".json";
    if (!ctx.tracer.writeChromeTrace(result.trace_file)) {
      result.trace_file.clear();
    }
  }
  return result;
}

}  // namespace pipebench
