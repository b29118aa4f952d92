#include "fchain/slave.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/trace.h"
#include "runtime/worker_pool.h"

namespace fchain::core {

FChainSlave::~FChainSlave() = default;
FChainSlave::FChainSlave(FChainSlave&&) noexcept = default;
FChainSlave& FChainSlave::operator=(FChainSlave&&) noexcept = default;

namespace {

/// First entry with entry.id >= id in the id-sorted fleet vector.
template <typename Vec>
auto lowerBoundVm(Vec& vms, ComponentId id) {
  return std::lower_bound(
      vms.begin(), vms.end(), id,
      [](const auto& entry, ComponentId target) { return entry.id < target; });
}

}  // namespace

FChainSlave::VmState* FChainSlave::findVm(ComponentId id) {
  const auto it = lowerBoundVm(vms_, id);
  return it != vms_.end() && it->id == id ? &it->state : nullptr;
}

const FChainSlave::VmState* FChainSlave::findVm(ComponentId id) const {
  const auto it = lowerBoundVm(vms_, id);
  return it != vms_.end() && it->id == id ? &it->state : nullptr;
}

void FChainSlave::addComponent(ComponentId id, TimeSec start_time) {
  const auto it = lowerBoundVm(vms_, id);
  if (it != vms_.end() && it->id == id) return;  // already registered
  vms_.insert(it,
              VmEntry{id, VmState{MetricSeries(start_time),
                                  NormalFluctuationModel(
                                      start_time, selector_.config().predictor),
                                  IngestStats{}}});
}

std::vector<ComponentId> FChainSlave::components() const {
  std::vector<ComponentId> ids;
  ids.reserve(vms_.size());
  for (const VmEntry& entry : vms_) ids.push_back(entry.id);
  return ids;
}

void FChainSlave::ingest(ComponentId id,
                         const std::array<double, kMetricCount>& sample) {
  const VmState* vm = findVm(id);
  if (vm == nullptr) return;
  ingestAt(id, vm->series.endTime(), sample);
}

void FChainSlave::ingestAt(ComponentId id, TimeSec t,
                           const std::array<double, kMetricCount>& sample) {
  VmState* vm_ptr = findVm(id);
  if (vm_ptr == nullptr) return;
  VmState& vm = *vm_ptr;
  const FChainConfig& config = selector_.config();

  const TimeSec start = vm.series.of(MetricKind::CpuUsage).startTime();
  const TimeSec end = vm.series.endTime();

  // Quarantine non-finite values so downstream analysis only ever sees
  // finite numbers. The substitute is the good value already stored *at
  // time t* when this is a duplicate/out-of-order delivery (re-sending a
  // second must never overwrite correct history with a stale tail value),
  // and otherwise the metric's last good value (0 before any sample). The
  // substitution keeps all six per-metric series aligned.
  std::array<double, kMetricCount> clean = sample;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    if (!std::isfinite(clean[m])) {
      const TimeSeries& series = vm.series.of(kAllMetrics[m]);
      if (t >= start && t < end) {
        clean[m] = series.at(t);
      } else {
        clean[m] = series.empty() ? 0.0 : series.at(series.endTime() - 1);
      }
      ++vm.stats.quarantined;
    }
  }
  if (t < start) {
    ++vm.stats.stale_dropped;
    return;
  }
  if (t < end) {
    // Duplicate / out-of-order delivery: the latest value wins. The model
    // is append-only and has already consumed this second, so it stays
    // untouched.
    for (MetricKind kind : kAllMetrics) {
      vm.series.of(kind).at(t) = clean[metricIndex(kind)];
    }
    ++vm.stats.duplicates;
    return;
  }

  const TimeSec gap = t - end;
  if (gap > config.max_gap_fill_sec) {
    // A timestamp this far in the future is clock corruption, not a gap.
    ++vm.stats.future_dropped;
    return;
  }
  if (gap > 0) {
    // Synthesize the missing seconds and feed them to the model too, so the
    // prediction-error series stays aligned with the metric series.
    std::array<double, kMetricCount> last{};
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      const TimeSeries& series = vm.series.of(kAllMetrics[m]);
      last[m] = series.empty() ? clean[m] : series.at(series.endTime() - 1);
    }
    for (TimeSec g = 1; g <= gap; ++g) {
      std::array<double, kMetricCount> filled{};
      const double frac =
          static_cast<double>(g) / static_cast<double>(gap + 1);
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        filled[m] = config.gap_fill == GapFill::Linear
                        ? last[m] + (clean[m] - last[m]) * frac
                        : last[m];
      }
      vm.series.append(filled);
      vm.model.observe(filled);
    }
    vm.stats.gaps_filled += static_cast<std::size_t>(gap);
  }
  vm.series.append(clean);
  vm.model.observe(clean);
}

const IngestStats* FChainSlave::ingestStatsOf(ComponentId id) const {
  const VmState* vm = findVm(id);
  return vm == nullptr ? nullptr : &vm->stats;
}

const MetricSeries* FChainSlave::seriesOf(ComponentId id) const {
  const VmState* vm = findVm(id);
  return vm == nullptr ? nullptr : &vm->series;
}

std::optional<ComponentFinding> FChainSlave::analyze(
    ComponentId id, TimeSec violation_time) const {
  FCHAIN_SPAN_VAR(span, "slave.analyze_vm");
  span.arg("component", static_cast<std::int64_t>(id));
  const VmState* vm = findVm(id);
  if (vm == nullptr) return std::nullopt;
  return selector_.analyzeComponent(id, vm->series, vm->model,
                                    violation_time);
}

std::vector<std::optional<ComponentFinding>> FChainSlave::analyzeBatch(
    const std::vector<ComponentId>& ids, TimeSec violation_time) const {
  FCHAIN_SPAN_VAR(span, "slave.analyze_batch");
  span.arg("n", static_cast<std::int64_t>(ids.size()));
  std::vector<std::optional<ComponentFinding>> findings(ids.size());
  if (pool_ == nullptr || ids.size() < 2) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      findings[i] = analyze(ids[i], violation_time);
    }
    return findings;
  }
  // analyze() only reads vms_ and the (stateless) selector, so concurrent
  // per-component calls are safe; each task owns exactly one reply slot.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    tasks.push_back([this, &findings, &ids, i, violation_time] {
      findings[i] = analyze(ids[i], violation_time);
    });
  }
  pool_->run(std::move(tasks));
  return findings;
}

void FChainSlave::setAnalysisThreads(int threads) {
  pool_ = threads > 1 ? std::make_unique<runtime::WorkerPool>(threads)
                      : nullptr;
}

}  // namespace fchain::core
