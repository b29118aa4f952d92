#include "fleet/monitor.h"

#include <utility>

namespace fchain::fleet {

namespace {

FleetConfig fleetConfigFrom(const FleetMonitorConfig& config) {
  FleetConfig fleet;
  fleet.shards = config.shards;
  fleet.vnodes = config.vnodes;
  fleet.fchain = config.monitor.fchain;
  fleet.retry = config.monitor.retry;
  fleet.shard_worker_threads = config.monitor.worker_threads;
  fleet.fleet_threads = config.fleet_threads;
  fleet.journal_dir = config.journal_dir;
  return fleet;
}

}  // namespace

FleetMonitor::FleetMonitor(FleetMonitorConfig config)
    : config_(std::move(config)), fleet_(fleetConfigFrom(config_)) {
  monitors_.reserve(fleet_.shardCount());
  local2fleet_.resize(fleet_.shardCount());
  for (std::size_t s = 0; s < fleet_.shardCount(); ++s) {
    auto monitor = std::make_unique<online::OnlineMonitor>(config_.monitor);
    const ShardId shard = static_cast<ShardId>(s);
    monitor->setLocalizer(
        [this, shard](std::size_t local_app,
                      const std::vector<ComponentId>& components, TimeSec tv) {
          return runFleetLocalize(local2fleet_[shard][local_app], components,
                                  tv);
        });
    monitor->onIncident([this, shard](const online::OnlineIncident& incident) {
      online::OnlineIncident fleet_incident = incident;
      fleet_incident.app = local2fleet_[shard][incident.app];
      incidents_.push_back(std::move(fleet_incident));
      if (callback_) callback_(incidents_.back());
    });
    monitors_.push_back(std::move(monitor));
  }
}

core::PinpointResult FleetMonitor::runFleetLocalize(
    std::size_t fleet_app, const std::vector<ComponentId>& components,
    TimeSec tv) {
  // Per-application dependency semantics, mirrored from OnlineMonitor's own
  // fire(): fires are serialized per monitor and the shard monitors run on
  // the caller's thread, so the install cannot race a localize.
  const FleetApp& app = apps_[fleet_app];
  fleet_.setDependencies(app.has_deps ? app.deps : default_deps_);
  return fleet_.localize(components, tv);
}

void FleetMonitor::addSlave(core::FChainSlave* slave) {
  fleet_.addSlave(slave);
  for (ShardPartial& slice :
       partitionByOwner(fleet_.ring(), slave->components())) {
    monitors_[slice.shard]->addEndpoint(
        std::make_shared<runtime::LocalEndpoint>(slave),
        slice.components);
  }
}

void FleetMonitor::addEndpoint(
    std::shared_ptr<runtime::SlaveEndpoint> endpoint,
    const std::vector<ComponentId>& components) {
  fleet_.addEndpoint(endpoint, components);
  for (ShardPartial& slice : partitionByOwner(fleet_.ring(), components)) {
    monitors_[slice.shard]->addEndpoint(endpoint, slice.components);
  }
}

std::size_t FleetMonitor::addApplication(online::AppSpec spec) {
  FleetApp app;
  app.shard = fleet_.ring().ownerOfApp(spec.name);
  app.local = monitors_[app.shard]->addApplication(std::move(spec));
  const std::size_t fleet_index = apps_.size();
  local2fleet_[app.shard].push_back(fleet_index);
  apps_.push_back(std::move(app));
  return fleet_index;
}

void FleetMonitor::setDependencies(netdep::DependencyGraph graph) {
  default_deps_ = std::move(graph);
  fleet_.setDependencies(default_deps_);
}

void FleetMonitor::setDependencies(std::size_t app,
                                   netdep::DependencyGraph graph) {
  FleetApp& state = apps_.at(app);
  state.deps = std::move(graph);
  state.has_deps = true;
}

void FleetMonitor::ingest(ComponentId id, TimeSec t,
                          const std::array<double, kMetricCount>& sample) {
  monitors_[fleet_.ownerOf(id)]->ingest(id, t, sample);
}

void FleetMonitor::flushIngest() {
  for (auto& monitor : monitors_) monitor->flushIngest();
}

bool FleetMonitor::observeLatency(std::size_t app, TimeSec t,
                                  double latency_sec) {
  flushIngest();
  const FleetApp& state = apps_.at(app);
  return monitors_[state.shard]->observeLatency(state.local, t, latency_sec);
}

bool FleetMonitor::observeProgress(std::size_t app, TimeSec t,
                                   double progress) {
  flushIngest();
  const FleetApp& state = apps_.at(app);
  return monitors_[state.shard]->observeProgress(state.local, t, progress);
}

bool FleetMonitor::observe(std::size_t app, const sim::StreamTick& tick) {
  flushIngest();
  const FleetApp& state = apps_.at(app);
  return monitors_[state.shard]->observe(state.local, tick);
}

std::size_t FleetMonitor::pump() {
  flushIngest();
  std::size_t fired = 0;
  for (auto& monitor : monitors_) fired += monitor->pump();
  return fired;
}

std::size_t FleetMonitor::drain() {
  flushIngest();
  std::size_t fired = 0;
  for (auto& monitor : monitors_) fired += monitor->drain();
  return fired;
}

}  // namespace fchain::fleet
