// Online fan-in for the fleet tier: N shard-local OnlineMonitors in front
// of one FleetMaster.
//
// In a sharded deployment each master shard runs its own online monitor
// process; an application's SLO signal is watched by the shard that owns
// the *application* (HashRing::ownerOfApp), while each component's
// telemetry streams to the shard that owns the *component*. FleetMonitor
// reproduces that topology in-process:
//
//   ingest(id, t, s) ──▶ monitors_[ownerOfComponent(id)]  (ring + slave)
//   observe(app, …)  ──▶ monitors_[ownerOfApp(app.name)]  (SLO latch)
//                             │ fire
//                             ▼
//              OnlineMonitor::Localizer ──▶ FleetMaster::localize
//                (cross-shard fan-out + FleetAggregator merge)
//
// The shard monitors keep every OnlineMonitor semantic — latch, cooldown,
// queueing, re-arm, tv anchoring — untouched; only the fan-out is routed
// through the fleet, so a fired incident's PinpointResult is byte-identical
// to a single-monitor run over the same stream (each sample reaches the
// shared slave exactly once, via its owner shard's ingest route).
//
// Each shard monitor batches its own ingest slice (OnlineMonitor header),
// but a fire on one shard fans out to every shard's endpoints. observe*(),
// pump() and drain() therefore first send every shard's partial batch, so
// a fan-out never runs ahead of a sample that already arrived.
#pragma once

#include <memory>
#include <vector>

#include "fleet/fleet.h"
#include "online/monitor.h"

namespace fchain::fleet {

struct FleetMonitorConfig {
  std::size_t shards = 2;
  std::size_t vnodes = HashRing::kDefaultVnodes;
  /// Shared by every shard monitor; its fchain / retry / worker_threads
  /// settings also configure the fleet's shard masters, so the fan-out runs
  /// under exactly the config a single monitor's master would.
  online::OnlineMonitorConfig monitor;
  /// Cross-shard fan-out threads for one localization (0 = serial).
  int fleet_threads = 0;
  /// Per-shard incident journal directory ("" disables journaling).
  std::string journal_dir;
};

class FleetMonitor {
 public:
  explicit FleetMonitor(FleetMonitorConfig config = {});

  // --- Registration (before streaming starts) ----------------------------

  /// Registers an in-process slave: analysis slices with the fleet's shard
  /// masters, ingest slices with the owning shard monitors. The slave must
  /// outlive the fleet monitor.
  void addSlave(core::FChainSlave* slave);

  /// Registers a transport endpoint (must implement the ingest RPC) under a
  /// manifest component list, sliced by ring ownership on both paths.
  void addEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                   const std::vector<ComponentId>& components);

  /// Registers an application on its owning shard's monitor; returns the
  /// fleet-wide app index used by observe*() and the incident stream.
  std::size_t addApplication(online::AppSpec spec);

  /// Cluster-wide default dependency graph.
  void setDependencies(netdep::DependencyGraph graph);
  /// Per-application graph, installed on the fleet for this app's
  /// localizations only (same semantics as OnlineMonitor::setDependencies).
  void setDependencies(std::size_t app, netdep::DependencyGraph graph);

  // --- Streaming ---------------------------------------------------------

  void ingest(ComponentId id, TimeSec t,
              const std::array<double, kMetricCount>& sample);
  void ingest(const sim::StreamSample& sample) {
    ingest(sample.component, sample.t, sample.values);
  }

  bool observeLatency(std::size_t app, TimeSec t, double latency_sec);
  bool observeProgress(std::size_t app, TimeSec t, double progress);
  bool observe(std::size_t app, const sim::StreamTick& tick);

  /// Pumps every shard monitor (call once per tick). Returns fires summed.
  std::size_t pump();
  std::size_t drain();

  // --- Results / introspection -------------------------------------------

  /// Fleet-wide incident stream in fire order; OnlineIncident::app is the
  /// fleet app index returned by addApplication().
  const std::vector<online::OnlineIncident>& incidents() const {
    return incidents_;
  }
  void onIncident(online::OnlineMonitor::IncidentCallback callback) {
    callback_ = std::move(callback);
  }

  FleetMaster& fleet() { return fleet_; }
  const FleetMaster& fleet() const { return fleet_; }
  std::size_t shardCount() const { return monitors_.size(); }
  online::OnlineMonitor& shardMonitor(ShardId shard) {
    return *monitors_.at(shard);
  }
  ShardId appShard(std::size_t app) const { return apps_.at(app).shard; }

 private:
  struct FleetApp {
    ShardId shard = 0;        ///< owning shard (by app name)
    std::size_t local = 0;    ///< index inside that shard's monitor
    netdep::DependencyGraph deps;
    bool has_deps = false;
  };

  /// Sends every shard monitor's queued ingest batches.
  void flushIngest();

  core::PinpointResult runFleetLocalize(
      std::size_t fleet_app, const std::vector<ComponentId>& components,
      TimeSec tv);

  FleetMonitorConfig config_;
  FleetMaster fleet_;
  std::vector<std::unique_ptr<online::OnlineMonitor>> monitors_;
  std::vector<FleetApp> apps_;
  /// local2fleet_[shard][local app index] -> fleet app index.
  std::vector<std::vector<std::size_t>> local2fleet_;
  netdep::DependencyGraph default_deps_;
  std::vector<online::OnlineIncident> incidents_;
  online::OnlineMonitor::IncidentCallback callback_;
};

}  // namespace fchain::fleet
