// FChain slave (paper Fig. 1): runs in Domain 0 of one cloud node, samples
// the six system metrics of every local guest VM each second, and keeps the
// per-metric normal fluctuation models up to date. When the master asks, it
// runs the abnormal change point selector over its local components'
// look-back windows and returns the findings — the compute-heavy selection
// work thereby stays distributed across hosts (paper §III-G).
//
// Ingestion is hardened against unreliable monitoring streams: missing
// seconds are gap-filled (FChainConfig::gap_fill), duplicate and
// out-of-order timestamps are tolerated, and non-finite samples are
// quarantined before they can reach the Markov model or CUSUM. Per-VM
// IngestStats count every such repair.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "fchain/change_selector.h"
#include "persist/snapshot.h"
#include "runtime/worker_pool.h"

namespace fchain::core {

/// Per-VM telemetry repair counters.
struct IngestStats {
  std::size_t gaps_filled = 0;     ///< synthesized samples (missing seconds)
  std::size_t quarantined = 0;     ///< non-finite metric values replaced
  std::size_t duplicates = 0;      ///< duplicate/out-of-order timestamps
  std::size_t stale_dropped = 0;   ///< samples older than the series start
  std::size_t future_dropped = 0;  ///< timestamps past max_gap_fill_sec
};

class FChainSlave {
 public:
  explicit FChainSlave(HostId host, FChainConfig config = {})
      : host_(host), selector_(std::move(config)) {}
  ~FChainSlave();
  FChainSlave(FChainSlave&&) noexcept;
  FChainSlave& operator=(FChainSlave&&) noexcept;

  HostId host() const { return host_; }

  /// Registers a guest VM hosted on this node. `start_time` is the first
  /// sample's timestamp. Register every component before handing the slave
  /// to FChainMaster: the master snapshots the component list then.
  void addComponent(ComponentId id, TimeSec start_time);

  bool monitors(ComponentId id) const { return findVm(id) != nullptr; }
  std::vector<ComponentId> components() const;

  /// Feeds one second of samples for one local VM at the series' endTime().
  void ingest(ComponentId id, const std::array<double, kMetricCount>& sample);

  /// Timestamped ingest for unreliable streams: tolerates gaps (filled per
  /// FChainConfig::gap_fill and counted), duplicate/out-of-order timestamps
  /// (latest value wins, the model is untouched), stale samples (dropped),
  /// wild future timestamps (dropped) and non-finite values (quarantined —
  /// the metric's last good value is substituted so neither the Markov
  /// model nor CUSUM ever sees a NaN/inf).
  void ingestAt(ComponentId id, TimeSec t,
                const std::array<double, kMetricCount>& sample);

  /// Telemetry repair counters for one VM; nullptr when unknown.
  const IngestStats* ingestStatsOf(ComponentId id) const;

  /// Read-only view of one VM's repaired metric ring; nullptr when unknown.
  const MetricSeries* seriesOf(ComponentId id) const;

  /// Master RPC: analyze one local component's look-back window.
  std::optional<ComponentFinding> analyze(ComponentId id,
                                          TimeSec violation_time) const;

  /// Batched master RPC: analyze every listed component against the same
  /// violation time. Returns one slot per requested id, aligned with `ids`
  /// (nullopt = unknown component or no abnormal change). When analysis
  /// threads are enabled the per-VM selector runs fan out across the
  /// slave's worker pool; each component writes only its own pre-allocated
  /// slot, so the reply is bit-identical to serial analysis regardless of
  /// scheduling.
  std::vector<std::optional<ComponentFinding>> analyzeBatch(
      const std::vector<ComponentId>& ids, TimeSec violation_time) const;

  /// Enables (threads > 1) or disables (<= 1) parallel per-VM analysis for
  /// analyzeBatch. Deployment-time configuration: size to the host cores
  /// Domain 0 may burn on diagnosis.
  void setAnalysisThreads(int threads);

  /// Captures the slave's complete learned state — every VM's repaired
  /// metric series, the six per-metric predictors (discretizer calibration,
  /// Markov transition mass, error history, prediction carry-over) and the
  /// ingest-repair counters — as a persistable value. `epoch` tags the
  /// checkpoint generation (see SlaveCheckpointer).
  persist::SlaveSnapshot snapshot(std::uint64_t epoch = 0) const;

  /// Rebuilds a slave from a snapshot. The restored slave's analyze() /
  /// analyzeBatch() results are bit-identical to the slave that produced the
  /// snapshot, and further ingest continues the models deterministically.
  /// `config` supplies the non-persisted analysis parameters (thresholds,
  /// gap-fill mode) and must match the original slave's config for
  /// equivalence to hold.
  static FChainSlave fromSnapshot(const persist::SlaveSnapshot& snapshot,
                                  FChainConfig config = {});

 private:
  struct VmState {
    MetricSeries series;
    NormalFluctuationModel model;
    IngestStats stats;
  };

  /// One monitored VM. The fleet lives in a flat vector sorted by id rather
  /// than a node-per-VM map: the per-second ingest path and the analyze
  /// fan-out walk VMs constantly, and a contiguous id-sorted array gives
  /// them a binary-search lookup over one cache-resident id sequence and a
  /// linear scan for iteration. Id order is also the snapshot order, so
  /// serialized state stays byte-identical to the old map layout. (The six
  /// metric streams inside MetricSeries are already
  /// structure-of-arrays: one dense TimeSeries per metric.)
  struct VmEntry {
    ComponentId id;
    VmState state;
  };

  VmState* findVm(ComponentId id);
  const VmState* findVm(ComponentId id) const;

  HostId host_;
  AbnormalChangeSelector selector_;
  std::vector<VmEntry> vms_;                   ///< sorted by id
  std::unique_ptr<runtime::WorkerPool> pool_;  ///< null = serial analysis
};

}  // namespace fchain::core
