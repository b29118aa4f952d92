#include "sim/injector.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace fchain::sim {

namespace {

using faults::FaultSpec;
using faults::FaultType;

/// Finds the unique component with out-edges to both targets (the RUBiS web
/// tier for the two load-balancing bugs).
ComponentId commonUpstream(const Application& app, ComponentId a,
                           ComponentId b) {
  const auto& edges = app.spec().edges;
  for (std::size_t i = 0; i < app.componentCount(); ++i) {
    bool to_a = false, to_b = false;
    for (const EdgeSpec& e : edges) {
      if (e.from != i) continue;
      to_a = to_a || e.to == a;
      to_b = to_b || e.to == b;
    }
    if (to_a && to_b) return static_cast<ComponentId>(i);
  }
  return kNoComponent;
}

double edgeWeight(const Application& app, ComponentId from, ComponentId to) {
  for (const EdgeSpec& e : app.spec().edges) {
    if (e.from == from && e.to == to) return e.weight;
  }
  return 0.0;
}

void inject(Application& app, const FaultSpec& spec) {
  switch (spec.type) {
    case FaultType::MemLeak:
      for (ComponentId id : spec.targets) {
        app.faultStateOf(id).leak_rate_mb_s = 25.0 * spec.intensity;
      }
      break;
    case FaultType::CpuHog:
      for (ComponentId id : spec.targets) {
        // The hog's threads take a fair-scheduler share inside the VM.
        app.faultStateOf(id).hog_share =
            std::min(0.9, 0.5 * spec.intensity);
      }
      break;
    case FaultType::InfiniteLoop:
      for (ComponentId id : spec.targets) {
        app.faultStateOf(id).infinite_loop = true;
      }
      break;
    case FaultType::NetHog:
      for (ComponentId id : spec.targets) {
        FaultState& fault = app.faultStateOf(id);
        // Strong flood: absorbing it consumes nearly a full core, so the SLO
        // trips promptly at any point in the diurnal workload cycle. httperf
        // ramps its connection count up over ~10 s, so downstream starvation
        // lags the flood onset by several seconds (the paper's observed
        // multi-second propagation delays).
        fault.extra_net_in_target = 40000.0 * spec.intensity;
        fault.extra_net_in_ramp = 2000.0 * spec.intensity;
        fault.net_hog_cpu_per_kb = 2.4e-5;
      }
      break;
    case FaultType::DiskHog:
      for (ComponentId id : spec.targets) {
        FaultState& fault = app.faultStateOf(id);
        // The hog saturates the disk queue as soon as it starts (a visible
        // initial dent), then keeps degrading slowly as its working set
        // grows — the paper's slow-manifestation fault that needs the
        // longer 500 s look-back window before the SLO finally trips.
        fault.disk_contention = std::min(0.5 * spec.intensity, 0.9);
        fault.disk_contention_target = std::min(0.97, 0.97 * spec.intensity);
        fault.disk_contention_ramp = 0.002;
      }
      break;
    case FaultType::Bottleneck:
      for (ComponentId id : spec.targets) {
        app.faultStateOf(id).cpu_cap_factor =
            std::max(0.06, 0.12 / spec.intensity);
      }
      break;
    case FaultType::OffloadBug:
    case FaultType::LBBug: {
      if (spec.targets.size() != 2) {
        throw std::invalid_argument("load-balance bug needs two targets");
      }
      const ComponentId a = spec.targets[0];
      const ComponentId b = spec.targets[1];
      const ComponentId up = commonUpstream(app, a, b);
      if (up == kNoComponent) {
        throw std::invalid_argument("no common upstream for LB bug targets");
      }
      const double total = edgeWeight(app, up, a) + edgeWeight(app, up, b);
      // OffloadBug: the remote lookup binds locally, so *all* of the shared
      // load lands on target a. LBBug: heavily skewed dispatch.
      const double to_a =
          spec.type == FaultType::OffloadBug ? total : 0.95 * total;
      app.setEdgeWeight(up, a, to_a);
      app.setEdgeWeight(up, b, total - to_a);
      break;
    }
    case FaultType::WorkloadSurge:
      // A flash-crowd-scale surge: enough to saturate the app tier at any
      // point of the diurnal cycle.
      app.setWorkloadMultiplier(3.0 * spec.intensity);
      break;
    case FaultType::CallLatency:
      for (ComponentId id : spec.targets) {
        const ComponentSpec& cspec = app.spec().components[id];
        FaultState& fault = app.faultStateOf(id);
        // A degraded RPC stack (retransmitting NIC, slow DNS, saturated
        // connection pool) adds a fixed delay to every outbound call. The
        // caller's finite RPC-thread pool then caps throughput at
        // slots/latency, so the cap tightens as intensity grows while the
        // per-call delay pushes directly on the latency SLO.
        fault.call_latency_extra_sec = 0.15 * spec.intensity;
        const double nominal =
            cspec.cpu_capacity / std::max(1e-9, cspec.cpu_demand);
        fault.call_slots = 0.0525 * nominal;
      }
      break;
    case FaultType::CallFailure:
      for (ComponentId id : spec.targets) {
        // A flaky downstream link: this fraction of the caller's outbound
        // calls fail and are retried, inflating effective service cost by
        // 1/(1-rate) until queues build at the caller.
        app.faultStateOf(id).call_failure_rate =
            std::min(0.9, 0.35 * spec.intensity);
      }
      break;
    case FaultType::SharedSlowdown:
      // A shared backing store (NFS) degrades: every component's disk slows
      // at once — instantly, the way a failing-over filer behaves — so the
      // abnormal onsets cluster tightly across the whole application and
      // each component sees one crisp step.
      for (ComponentId id = 0; id < app.componentCount(); ++id) {
        FaultState& fault = app.faultStateOf(id);
        fault.disk_contention = std::min(0.97 * spec.intensity, 0.99);
        fault.disk_contention_target = fault.disk_contention;
      }
      break;
  }
}

}  // namespace

void FaultInjector::apply(Application& app, TimeSec now) {
  fired_.resize(specs_.size(), false);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!fired_[i] && specs_[i].start_time == now) {
      inject(app, specs_[i]);
      fired_[i] = true;
    }
  }
}

namespace {

bool windowActive(const TelemetryFaultSpec& spec, TimeSec now) {
  if (now < spec.start_time) return false;
  return spec.duration_sec == 0 || now < spec.start_time + spec.duration_sec;
}

bool targetsComponent(const TelemetryFaultSpec& spec, ComponentId id) {
  if (spec.targets.empty()) return true;
  return std::find(spec.targets.begin(), spec.targets.end(), id) !=
         spec.targets.end();
}

/// Stateless per-(spec, component, second) coin flip.
bool roll(const TelemetryFaultSpec& spec, ComponentId id, TimeSec now,
          std::uint64_t salt) {
  if (spec.rate >= 1.0) return true;
  if (spec.rate <= 0.0) return false;
  Rng rng(mixSeed(spec.seed ^ salt, id, static_cast<std::uint64_t>(now)));
  return rng.chance(spec.rate);
}

}  // namespace

bool TelemetryFaultInjector::sampleDropped(ComponentId id,
                                           TimeSec now) const {
  for (const TelemetryFaultSpec& spec : specs_) {
    if (spec.type != TelemetryFaultType::SampleDropBurst) continue;
    if (!windowActive(spec, now) || !targetsComponent(spec, id)) continue;
    if (roll(spec, id, now, 0x5a3cull)) return true;
  }
  return false;
}

bool TelemetryFaultInjector::corruptSample(
    ComponentId id, TimeSec now,
    std::array<double, kMetricCount>& sample) const {
  bool corrupted = false;
  for (const TelemetryFaultSpec& spec : specs_) {
    if (spec.type != TelemetryFaultType::ValueCorruption) continue;
    if (!windowActive(spec, now) || !targetsComponent(spec, id)) continue;
    Rng rng(mixSeed(spec.seed ^ 0xc0de11ull, id,
                    static_cast<std::uint64_t>(now)));
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      if (!rng.chance(spec.rate)) continue;
      // The classic garbage a broken exporter emits: NaN, +-inf, or a
      // wildly out-of-range reading (counter wraparound, unit confusion).
      switch (rng.below(4)) {
        case 0: sample[m] = std::numeric_limits<double>::quiet_NaN(); break;
        case 1: sample[m] = std::numeric_limits<double>::infinity(); break;
        case 2: sample[m] = -std::numeric_limits<double>::infinity(); break;
        default: sample[m] *= 1e9; break;
      }
      corrupted = true;
    }
  }
  return corrupted;
}

bool TelemetryFaultInjector::slaveDown(HostId host, TimeSec now) const {
  for (const TelemetryFaultSpec& spec : specs_) {
    if (spec.type != TelemetryFaultType::SlaveOutage) continue;
    if (!windowActive(spec, now)) continue;
    if (spec.hosts.empty() || std::find(spec.hosts.begin(), spec.hosts.end(),
                                        host) != spec.hosts.end()) {
      return true;
    }
  }
  return false;
}

bool CrashInjector::crashesAt(HostId host, TimeSec now) const {
  for (const CrashSpec& spec : specs_) {
    if (spec.host == host && spec.crash_time == now) return true;
  }
  return false;
}

bool CrashInjector::restartsAt(HostId host, TimeSec now) const {
  for (const CrashSpec& spec : specs_) {
    if (spec.host == host && spec.restart_time != 0 &&
        spec.restart_time == now) {
      return true;
    }
  }
  return false;
}

bool CrashInjector::down(HostId host, TimeSec now) const {
  for (const CrashSpec& spec : specs_) {
    if (spec.host != host || now < spec.crash_time) continue;
    if (spec.restart_time == 0 || now < spec.restart_time) return true;
  }
  return false;
}

std::vector<ComponentId> groundTruth(
    const std::vector<faults::FaultSpec>& specs) {
  std::vector<ComponentId> truth;
  for (const auto& spec : specs) {
    for (ComponentId id : spec.targets) {
      if (std::find(truth.begin(), truth.end(), id) == truth.end()) {
        truth.push_back(id);
      }
    }
  }
  std::sort(truth.begin(), truth.end());
  return truth;
}

}  // namespace fchain::sim
