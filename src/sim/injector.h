// Applies fault specs to a running application (paper §III-A).
//
// At the spec's start time the injector flips the corresponding knobs in the
// target components' FaultState (or re-routes traffic for the two RUBiS
// software bugs, or perturbs the external workload for the external
// factors). Time-evolving behaviour (leak growth, DiskHog ramp-up) is then
// advanced by Application::step itself.
//
// A second, deliberately separate injector models *monitoring* faults — the
// telemetry plane failing while the application is (or is not) healthy:
// sample-drop bursts, value corruption (NaN/inf/garbage readings) and whole
// slave outage windows. These never touch the application; they decide what
// the FChain slaves get to see.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "faults/fault.h"
#include "sim/application.h"

namespace fchain::sim {

class FaultInjector {
 public:
  explicit FaultInjector(std::vector<faults::FaultSpec> specs = {})
      : specs_(std::move(specs)) {}

  void add(faults::FaultSpec spec) { specs_.push_back(std::move(spec)); }

  const std::vector<faults::FaultSpec>& specs() const { return specs_; }

  /// Call once per tick *before* Application::step; injects any spec whose
  /// start time equals `now`.
  void apply(Application& app, TimeSec now);

 private:
  std::vector<faults::FaultSpec> specs_;
  std::vector<bool> fired_;
};

/// Ground-truth union of faulty components across all specs (empty for
/// external factors).
std::vector<ComponentId> groundTruth(
    const std::vector<faults::FaultSpec>& specs);

// --- Monitoring (telemetry) faults --------------------------------------

enum class TelemetryFaultType : std::uint8_t {
  SampleDropBurst,  ///< samples lost in transit during the window
  ValueCorruption,  ///< readings replaced by NaN / +-inf / wild values
  SlaveOutage,      ///< the slave on the listed hosts is unreachable
};

struct TelemetryFaultSpec {
  TelemetryFaultType type = TelemetryFaultType::SampleDropBurst;
  TimeSec start_time = 0;
  /// Window length; 0 means "until the end of the run".
  TimeSec duration_sec = 0;
  /// Affected components (drop/corruption); empty means every component.
  std::vector<ComponentId> targets;
  /// Affected hosts (SlaveOutage only).
  std::vector<HostId> hosts;
  /// Per-sample probability of dropping / corrupting within the window.
  double rate = 1.0;
  std::uint64_t seed = 0;
};

/// Decides, deterministically per (spec seed, component, second), which
/// samples the monitoring plane loses or mangles. Stateless queries: the
/// same spec always yields the same loss pattern regardless of call order,
/// which keeps trials reproducible and lets callers probe any (id, t).
class TelemetryFaultInjector {
 public:
  explicit TelemetryFaultInjector(std::vector<TelemetryFaultSpec> specs = {})
      : specs_(std::move(specs)) {}

  void add(TelemetryFaultSpec spec) { specs_.push_back(std::move(spec)); }
  const std::vector<TelemetryFaultSpec>& specs() const { return specs_; }

  /// True when component `id`'s sample at time `now` never reaches its
  /// slave (the slave sees a gap).
  bool sampleDropped(ComponentId id, TimeSec now) const;

  /// Applies value corruption in place; returns true when any metric of the
  /// sample was mangled (to NaN, +-inf, or a wildly scaled value).
  bool corruptSample(ComponentId id, TimeSec now,
                     std::array<double, kMetricCount>& sample) const;

  /// True when the slave on `host` is inside an outage window at `now`.
  bool slaveDown(HostId host, TimeSec now) const;

 private:
  std::vector<TelemetryFaultSpec> specs_;
};

// --- Slave process crashes ------------------------------------------------

/// One slave-process crash/restart cycle. Unlike a SlaveOutage (the slave is
/// alive but unreachable, state intact), a crash kills the process: all
/// in-memory model state is gone and the replacement at `restart_time`
/// starts from whatever was persisted (core::SlaveCheckpointer) — or from
/// nothing.
struct CrashSpec {
  HostId host = 0;
  TimeSec crash_time = 0;
  /// When the replacement process comes up; 0 = never (down for the run).
  TimeSec restart_time = 0;
};

/// Deterministic schedule of slave-process deaths for crash-recovery
/// experiments. Stateless queries like TelemetryFaultInjector: the driver
/// probes crashesAt()/restartsAt() each tick and kills/rebuilds its slaves
/// accordingly.
class CrashInjector {
 public:
  explicit CrashInjector(std::vector<CrashSpec> specs = {})
      : specs_(std::move(specs)) {}

  void add(CrashSpec spec) { specs_.push_back(spec); }
  const std::vector<CrashSpec>& specs() const { return specs_; }

  /// True when the slave on `host` dies exactly at `now`.
  bool crashesAt(HostId host, TimeSec now) const;

  /// True when a replacement for `host` comes up exactly at `now`.
  bool restartsAt(HostId host, TimeSec now) const;

  /// True when `host` has no live slave at `now`
  /// (crash_time <= now < restart_time, or forever when never restarted).
  bool down(HostId host, TimeSec now) const;

 private:
  std::vector<CrashSpec> specs_;
};

}  // namespace fchain::sim
