#include "fleet/fleet.h"

#include <stdexcept>
#include <utility>

#include "runtime/worker_pool.h"

namespace fchain::fleet {

FleetMaster::FleetMaster(FleetConfig config)
    : config_(config),
      ring_(std::max<std::size_t>(1, config.shards), config.vnodes),
      aggregator_(config.fchain) {
  shards_.resize(ring_.shardCount());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!config_.journal_dir.empty()) {
      shards_[s].journal = std::make_unique<persist::IncidentJournal>(
          shardJournalPath(static_cast<ShardId>(s)));
    }
    shards_[s].master = buildMaster(shards_[s]);
  }
}

FleetMaster::~FleetMaster() = default;

FleetMaster::Shard& FleetMaster::checkedShard(ShardId shard) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("FleetMaster: unknown shard");
  }
  return shards_[shard];
}

const FleetMaster::Shard& FleetMaster::checkedShard(ShardId shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("FleetMaster: unknown shard");
  }
  return shards_[shard];
}

std::unique_ptr<core::FChainMaster> FleetMaster::buildMaster(Shard& shard) {
  auto master =
      std::make_unique<core::FChainMaster>(config_.fchain, config_.retry);
  master->setWorkerThreads(config_.shard_worker_threads);
  master->setDependencies(dependencies_);
  if (shard.journal) master->setIncidentJournal(shard.journal.get());
  for (const Registration& reg : shard.registrations) {
    master->registerEndpoint(reg.endpoint, reg.components);
  }
  return master;
}

void FleetMaster::registerSlices(
    std::shared_ptr<runtime::SlaveEndpoint> endpoint,
    const std::vector<ComponentId>& components) {
  for (ShardPartial& slice : partitionByOwner(ring_, components)) {
    Shard& shard = checkedShard(slice.shard);
    shard.registrations.push_back(
        Registration{endpoint, std::move(slice.components)});
    if (shard.master) {
      shard.master->registerEndpoint(shard.registrations.back().endpoint,
                                     shard.registrations.back().components);
    }
  }
}

void FleetMaster::addSlave(core::FChainSlave* slave) {
  // A LocalEndpoint per owning shard (not one shared endpoint): each shard
  // master's registered-identity guard then sees a distinct endpoint, and
  // the underlying slave analysis is const + thread-safe, so cross-shard
  // fan-out over the same slave is fine.
  for (ShardPartial& slice : partitionByOwner(ring_, slave->components())) {
    Shard& shard = checkedShard(slice.shard);
    shard.registrations.push_back(
        Registration{std::make_shared<runtime::LocalEndpoint>(slave),
                     std::move(slice.components)});
    if (shard.master) {
      shard.master->registerEndpoint(shard.registrations.back().endpoint,
                                     shard.registrations.back().components);
    }
  }
}

void FleetMaster::addEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                              const std::vector<ComponentId>& components) {
  registerSlices(std::move(endpoint), components);
}

void FleetMaster::setDependencies(netdep::DependencyGraph graph) {
  dependencies_ = std::move(graph);
  for (Shard& shard : shards_) {
    if (shard.master) shard.master->setDependencies(dependencies_);
  }
}

core::PinpointResult FleetMaster::localize(
    const std::vector<ComponentId>& components, TimeSec violation_time) {
  metric_localizations_.add();
  metric_components_.add(components.size());

  std::vector<ShardPartial> partials = partitionByOwner(ring_, components);
  const auto runSlice = [&](ShardPartial& partial) {
    Shard& shard = shards_[partial.shard];
    if (!shard.master) {
      metric_dark_slices_.add();
      partial = FleetAggregator::darkShard(partial.shard,
                                           std::move(partial.components));
      return;
    }
    metric_shard_fanouts_.add();
    partial.result = shard.master->localize(partial.components,
                                            violation_time);
  };

  if (config_.fleet_threads >= 1 && partials.size() > 1) {
    if (!pool_) {
      pool_ = std::make_unique<runtime::WorkerPool>(config_.fleet_threads);
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partials.size());
    for (ShardPartial& partial : partials) {
      tasks.push_back([&runSlice, &partial] { runSlice(partial); });
    }
    pool_->run(std::move(tasks));
  } else {
    for (ShardPartial& partial : partials) runSlice(partial);
  }

  return aggregator_.merge(partials, components.size(), &dependencies_);
}

void FleetMaster::crashShard(ShardId shard) {
  Shard& s = checkedShard(shard);
  // Order matters: the master holds a raw journal pointer, so it must die
  // first. The journal object closes its stream; the file stays — that IS
  // the crash state recoverShard() reads back.
  s.master.reset();
  s.journal.reset();
}

std::vector<core::RerunIncident> FleetMaster::recoverShard(ShardId shard) {
  Shard& s = checkedShard(shard);
  if (s.master) return {};
  if (!config_.journal_dir.empty()) {
    s.journal = std::make_unique<persist::IncidentJournal>(
        shardJournalPath(shard));
  }
  s.master = buildMaster(s);
  if (!s.journal) return {};
  return core::rerunPendingIncidents(*s.master, *s.journal);
}

bool FleetMaster::shardAlive(ShardId shard) const {
  return checkedShard(shard).master != nullptr;
}

core::FChainMaster& FleetMaster::shardMaster(ShardId shard) {
  Shard& s = checkedShard(shard);
  if (!s.master) throw std::logic_error("FleetMaster: shard is crashed");
  return *s.master;
}

persist::IncidentJournal* FleetMaster::shardJournal(ShardId shard) {
  return checkedShard(shard).journal.get();
}

std::string FleetMaster::shardJournalPath(ShardId shard) const {
  return config_.journal_dir + "/shard-" + std::to_string(shard) +
         ".incidents";
}

}  // namespace fchain::fleet
