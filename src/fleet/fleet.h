// Fleet-scale sharded localization tier (ROADMAP "fleet-scale master
// tier"; see docs/ARCHITECTURE.md "Fleet-scale sharding").
//
// One FChainMaster owns every component of every application it serves, so
// a single process bounds the fleet's components-per-second. FleetMaster
// splits that ownership across N independent master shards:
//
//               ┌── shard 0: FChainMaster ── endpoints of its slice
//   FleetMaster ┼── shard 1: FChainMaster ── ...
//     HashRing  └── shard N-1 ...
//        │
//        └─ localize(app, tv): partitionByOwner → per-shard localize →
//           FleetAggregator::merge  (byte-identical to one master; see
//           fleet/aggregator.h for the composition argument)
//
// Ownership is consistent-hash assignment (fleet/hash_ring.h): slaves and
// endpoints register once with the fleet, which slices their component
// lists by ring owner and registers each slice with the owning shard.
// Applications therefore span shards transparently — localize() fans out to
// every shard owning a piece of the app and re-derives the application
// verdict from the union of shard evidence.
//
// Failover reuses the single-master crash story unchanged: each shard has
// its own persist::IncidentJournal, so a shard that dies mid-localization
// leaves a pending entry in *its* journal only. While a shard is down the
// fleet keeps answering in degraded mode (the dead shard's slice reports
// unanalyzed, coverage drops — same contract as a dark slave). recoverShard()
// rebuilds the shard master from the retained registrations and re-runs its
// pending incidents via core::rerunPendingIncidents.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fchain/master.h"
#include "fchain/recovery.h"
#include "fleet/aggregator.h"
#include "fleet/hash_ring.h"
#include "obs/metrics.h"
#include "persist/journal.h"

namespace fchain::runtime {
class WorkerPool;
}  // namespace fchain::runtime

namespace fchain::fleet {

struct FleetConfig {
  /// Number of master shards (ids 0..shards-1). 1 collapses the tier to a
  /// single master behind the fleet interface.
  std::size_t shards = 2;
  /// Virtual nodes per shard on the assignment ring.
  std::size_t vnodes = HashRing::kDefaultVnodes;

  /// Per-shard master configuration — identical across shards, and it must
  /// equal the single-master config the goldens were produced with for the
  /// byte-identity contract to hold.
  core::FChainConfig fchain;
  runtime::RetryPolicy retry;

  /// Worker threads inside each shard master's own fan-out (0 = inline on
  /// the caller's thread).
  int shard_worker_threads = 0;

  /// Threads for the cross-shard fan-out of one fleet localize() (0 =
  /// serial, shards walked in ascending id order). Safe with LocalEndpoint
  /// transports (slave analysis is const + thread-safe); only enable for
  /// other transports when every endpoint tolerates concurrent requests
  /// from *different* shard masters.
  int fleet_threads = 0;

  /// Directory for per-shard incident journals ("" disables journaling).
  /// Shard k journals to <journal_dir>/shard-<k>.incidents.
  std::string journal_dir;
};

class FleetMaster {
 public:
  explicit FleetMaster(FleetConfig config = {});
  ~FleetMaster();

  // --- Registration (before localizations start) -------------------------

  /// Registers an in-process slave with every shard owning one of its
  /// components (each shard gets a LocalEndpoint over the slice it owns).
  /// The slave must outlive the fleet; components must be registered first.
  void addSlave(core::FChainSlave* slave);

  /// Registers a transport endpoint under a manifest component list; the
  /// list is sliced by ring ownership and each owning shard registers the
  /// shared endpoint for its slice.
  void addEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                   const std::vector<ComponentId>& components);

  /// Cluster dependency graph (global id space), installed on every shard
  /// and used by the cross-shard merge.
  void setDependencies(netdep::DependencyGraph graph);

  // --- Localization ------------------------------------------------------

  /// Localizes the fault for the application made of `components`,
  /// whichever shards own them. Down shards contribute their slice as
  /// unanalyzed (degraded coverage) instead of failing the localization.
  core::PinpointResult localize(const std::vector<ComponentId>& components,
                                TimeSec violation_time);

  // --- Failover ----------------------------------------------------------

  /// Kills the shard's master process state (its journal file survives on
  /// disk, exactly as a real crash leaves it). Localizations keep running
  /// in degraded mode.
  void crashShard(ShardId shard);

  /// Rebuilds a crashed shard from the retained registrations and re-runs
  /// every localization its journal recorded as started but never
  /// completed. Returns the re-run incidents (empty when none were
  /// pending). No-op returning empty when the shard is already alive.
  std::vector<core::RerunIncident> recoverShard(ShardId shard);

  bool shardAlive(ShardId shard) const;

  // --- Introspection -----------------------------------------------------

  const HashRing& ring() const { return ring_; }
  std::size_t shardCount() const { return shards_.size(); }
  ShardId ownerOf(ComponentId id) const { return ring_.ownerOfComponent(id); }

  /// The shard's live master. Throws std::logic_error while it is crashed.
  core::FChainMaster& shardMaster(ShardId shard);

  /// The shard's journal (nullptr when journaling is disabled or the shard
  /// is crashed); the on-disk path is valid either way.
  persist::IncidentJournal* shardJournal(ShardId shard);
  std::string shardJournalPath(ShardId shard) const;

  /// Fleet-tier instruments:
  ///   fleet.localizations   (counter: fleet-level localize() calls)
  ///   fleet.shard_fanouts   (counter: per-shard localizations issued)
  ///   fleet.dark_slices     (counter: slices answered by a crashed shard)
  ///   fleet.components      (counter: components routed through localize)
  obs::MetricRegistry& metrics() { return registry_; }
  const obs::MetricRegistry& metrics() const { return registry_; }

 private:
  /// One endpoint × slice registration, retained so a crashed shard's
  /// master can be rebuilt with identical routing.
  struct Registration {
    std::shared_ptr<runtime::SlaveEndpoint> endpoint;
    std::vector<ComponentId> components;
  };
  struct Shard {
    std::unique_ptr<core::FChainMaster> master;
    std::unique_ptr<persist::IncidentJournal> journal;
    std::vector<Registration> registrations;
  };

  Shard& checkedShard(ShardId shard);
  const Shard& checkedShard(ShardId shard) const;
  /// Fresh master wired with config, dependencies, and the shard journal;
  /// re-registers `registrations`.
  std::unique_ptr<core::FChainMaster> buildMaster(Shard& shard);
  void registerSlices(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                      const std::vector<ComponentId>& components);

  FleetConfig config_;
  HashRing ring_;
  FleetAggregator aggregator_;
  netdep::DependencyGraph dependencies_;
  std::vector<Shard> shards_;  ///< index == ShardId
  std::unique_ptr<runtime::WorkerPool> pool_;

  obs::MetricRegistry registry_;
  obs::Counter& metric_localizations_ =
      registry_.counter("fleet.localizations");
  obs::Counter& metric_shard_fanouts_ =
      registry_.counter("fleet.shard_fanouts");
  obs::Counter& metric_dark_slices_ = registry_.counter("fleet.dark_slices");
  obs::Counter& metric_components_ = registry_.counter("fleet.components");
};

}  // namespace fchain::fleet
