// Online monitoring runtime: streaming ingest + auto-triggered localization.
//
// Everything built so far diagnoses *after the fact*: a finished RunRecord
// (or a set of fully-ingested slaves) and an externally supplied violation
// time go in, a PinpointResult comes out. The paper's FChain is an always-on
// system — slaves learn continuously from live 1 Hz telemetry, an SLO
// monitor watches the application signal, and the master's localization is
// *triggered by* the violation, not requested by an operator. OnlineMonitor
// closes that loop:
//
//   StreamingSource ──samples──▶ ingest() ──per-slave batch──▶
//                                     SlaveEndpoint::ingestBatch RPC
//                  ──SLO signal─▶ observe*() ──latch──▶ FChainMaster::localize
//
// The master keeps no copy of the telemetry: the owning slave holds each
// component's history (paper §II), and the master needs only the violation
// time to start a localization.
//
// Triggering semantics (all in deterministic *sample* time, never wall
// time, so a replayed stream reproduces the same incidents bit-for-bit):
//   - an SLO latch triggers localization immediately when no cooldown is
//     active; during a cooldown the incident is queued (bounded) and fires
//     from pump() once the cooldown expires — overlapping incidents from
//     several applications serialize instead of storming the slaves;
//   - the latched violation time tv is preserved across queueing: the
//     analysis window is anchored at the violation, however late the
//     fan-out runs;
//   - a handled application re-arms only after `rearm_good_sec` of
//     recovered signal — faults that persist (every injected fault does)
//     do not re-trigger once per sustain window.
//
// Equivalence contract (tested in online_vs_offline_test / the soak tier):
// an incident triggered at its latch tick is bit-identical to offline
// `localizeRecord` on the record as of that tick — the slaves have consumed
// exactly the recorded samples, and replayModel(series, tv + 1) is exactly
// the slave's continuously learned model because the series *ends* at tv.
// For a queued incident the slaves have kept learning past tv; the offline
// equivalent replays the model to the trigger-time series end instead.
//
// The monitor owns its FChainMaster; transports registered through
// addSlave()/addEndpoint() serve both the analysis RPCs and the streaming
// ingest RPC (runtime::IngestBatchRequest). Ingest is fire-and-forget: a
// lost sample is repaired by the slave's gap-fill on the next arrival, so
// there is no retry path to storm a degraded slave with.
//
// When a sample reaches its slave: ingest() queues it in its slave's batch
// and the batch goes out, as one ingestBatch call,
//   - inside the ingest() that fills it to as many samples as the slave has
//     components here — a complete tick reaches the slave before ingest()
//     returns, so a caller may inspect the slave or call master().localize
//     straight after the tick's last ingest();
//   - otherwise (a sample of the tick was dropped upstream) at the start of
//     the next observe*(), pump() or drain(), or an explicit flushIngest().
// A wire transport pays one round-trip per batch; in-process transports
// apply the batch sample by sample, so their behaviour is unchanged.
//
// The driver loop contract, per simulated second:
//   1. ingest() every component's sample for tick t;
//   2. observe*() each application's SLO signal at t (may fire) — this
//      first sends any partial batches, so a synchronous fire sees every
//      sample of t that arrived;
//   3. pump() once, so queued incidents fire on tick boundaries only —
//      every registered slave then holds *complete* data through t when a
//      late incident fans out.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fchain/master.h"
#include "sim/slo.h"
#include "sim/stream.h"

namespace fchain::online {

/// Which SLO guards an application, with the paper's defaults (§III-A).
struct SloSpec {
  enum class Kind : std::uint8_t {
    Latency,   ///< sustained `latency > threshold` (RUBiS, System S)
    Progress,  ///< no progress over a trailing window (Hadoop)
  };
  Kind kind = Kind::Latency;
  double latency_threshold_sec = 0.1;
  std::size_t sustain_sec = 30;
  std::size_t progress_window_sec = 30;
  double progress_min_delta = 5e-4;
};

/// One monitored application: a name, the (global) components it runs on,
/// and its SLO.
struct AppSpec {
  std::string name;
  std::vector<ComponentId> components;
  SloSpec slo;
};

struct OnlineMonitorConfig {
  core::FChainConfig fchain;
  runtime::RetryPolicy retry;

  /// Seconds of sample time after a trigger during which further latches
  /// queue instead of firing (localization storm control).
  TimeSec cooldown_sec = 60;

  /// Queued-incident bound; latches past it are counted dropped.
  std::size_t max_pending_incidents = 8;

  /// Consecutive seconds of recovered SLO signal before a handled
  /// application's monitor re-arms. For progress SLOs the equivalent
  /// criterion is cumulative progress of rearm_good_sec x min_delta since
  /// the trigger.
  TimeSec rearm_good_sec = 30;

  /// Worker threads for the master's localization fan-out (0 = inline on
  /// the caller's thread).
  int worker_threads = 0;

  /// Deadline stamped on every ingest RPC (0 disables).
  double ingest_deadline_ms = 0.0;
};

/// One auto-triggered localization.
struct OnlineIncident {
  std::size_t app = 0;  ///< index returned by addApplication()
  std::string app_name;
  TimeSec violation_time = 0;  ///< the SLO latch (analysis anchor tv)
  TimeSec triggered_at = 0;    ///< sample clock when localize actually ran
  TimeSec queued_delay_sec = 0;  ///< triggered_at - violation_time
  double localize_wall_ms = 0.0;
  /// Supervision deltas across *this* localization (0 when the watchdog is
  /// off): endpoint calls abandoned on timeout and components shed by the
  /// localize deadline. Unlike localize_wall_ms these are deterministic
  /// under a deterministic transport, so offline analytics (the fault
  /// campaign's timed-out classification) can key on them without
  /// reintroducing wall-clock noise into reports.
  std::size_t watchdog_trips_delta = 0;
  std::size_t deadline_skips_delta = 0;
  core::PinpointResult result;
};

class OnlineMonitor {
 public:
  using IncidentCallback = std::function<void(const OnlineIncident&)>;
  /// Replacement fan-out for a latched incident: (app index, the app's
  /// components, violation time) -> PinpointResult. See setLocalizer().
  using Localizer = std::function<core::PinpointResult(
      std::size_t, const std::vector<ComponentId>&, TimeSec)>;

  explicit OnlineMonitor(OnlineMonitorConfig config = {});

  // --- Registration (before streaming starts) ----------------------------

  /// Registers an in-process slave (ingest + analysis via LocalEndpoint).
  /// The slave must outlive the monitor; its components must already be
  /// registered.
  void addSlave(core::FChainSlave* slave);

  /// Registers a slave behind an arbitrary transport. The endpoint must
  /// implement the ingest RPC (LocalEndpoint, CheckpointedEndpoint, and the
  /// chaos decorators all do).
  void addEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                   const std::vector<ComponentId>& components);

  /// Registers an application; returns its index (used by observe*() and
  /// OnlineIncident::app).
  std::size_t addApplication(AppSpec spec);

  /// Cluster-wide dependency graph (global id space): the default for every
  /// application without a graph of its own.
  void setDependencies(netdep::DependencyGraph graph);

  /// Per-application dependency graph (global id space), installed on the
  /// master for this application's localizations only. Localization
  /// semantics are per-application: an app whose discovery found *nothing*
  /// (the paper's data-stream negative finding) must fall back to
  /// chronology-only pinpointing even when other apps on the same monitor
  /// have rich graphs — a merged cluster graph would silently defeat that
  /// fallback and mark every unconnected component an independent fault.
  void setDependencies(std::size_t app, netdep::DependencyGraph graph);
  void setWatchdog(runtime::WatchdogConfig config);
  /// Incident journal for crash recovery (not owned; see fchain/recovery.h).
  void setIncidentJournal(persist::IncidentJournal* journal);

  /// Routes fired incidents through an external localizer instead of the
  /// monitor's own master (the fleet tier's fan-in seam: the owning-shard
  /// monitor keeps all latch/cooldown/re-arm semantics and hands only the
  /// fan-out to the fleet). Everything else about an incident — tv
  /// anchoring, queueing, callbacks, metrics — is unchanged; the master's
  /// per-app dependency install is skipped, since the external localizer
  /// owns dependency knowledge. Pass {} to restore the built-in path.
  void setLocalizer(Localizer localizer) {
    localizer_ = std::move(localizer);
  }

  // --- Streaming ---------------------------------------------------------

  /// Queues one component-second for the owning slave; sends the slave's
  /// batch once it holds a sample per component (see the header comment).
  /// Advances the monitor's sample clock.
  void ingest(ComponentId id, TimeSec t,
              const std::array<double, kMetricCount>& sample);
  void ingest(const sim::StreamSample& sample) {
    ingest(sample.component, sample.t, sample.values);
  }

  /// Feeds one application's SLO signal for one tick; returns true when an
  /// incident fired synchronously (latch with no active cooldown).
  bool observeLatency(std::size_t app, TimeSec t, double latency_sec);
  bool observeProgress(std::size_t app, TimeSec t, double progress);
  /// Dispatches on the app's SloSpec::Kind from a StreamTick.
  bool observe(std::size_t app, const sim::StreamTick& tick);

  /// Sends every slave's queued (partial) ingest batch now. observe*(),
  /// pump() and drain() call it first; a caller that fans out to these
  /// slaves from elsewhere (FleetMonitor) calls it before the fan-out.
  void flushIngest();

  /// Fires queued incidents whose cooldown has expired (call once per tick,
  /// after every ingest/observe of that tick). Returns the number fired.
  std::size_t pump();

  /// Flushes the queue regardless of cooldown (end-of-stream drain).
  std::size_t drain();

  // --- Results / introspection -------------------------------------------

  /// Callback invoked synchronously as each incident completes — the hook
  /// where an equivalence harness captures the comparator state at the
  /// exact trigger moment.
  void onIncident(IncidentCallback callback) {
    callback_ = std::move(callback);
  }

  const std::vector<OnlineIncident>& incidents() const { return incidents_; }
  std::size_t pendingTriggers() const { return pending_.size(); }
  TimeSec clock() const { return clock_; }

  core::FChainMaster& master() { return master_; }
  const core::FChainMaster& master() const { return master_; }

  /// The master's registry, extended with the monitor's own instruments:
  ///   online.ingest_samples    (counter: samples routed to a slave)
  ///   online.ingest_failures   (counter: samples lost in transit or
  ///                             unroutable; a lost batch adds its size)
  ///   online.slo_latches       (counter: SLO violations latched)
  ///   online.triggers          (counter: localizations auto-triggered)
  ///   online.incidents_queued  (counter: latches deferred by a cooldown)
  ///   online.incidents_dropped (counter: latches shed by the queue bound)
  ///   online.trigger_latency_ms (histogram: latch-to-pinpoint wall time of
  ///                              synchronously fired incidents; queued
  ///                              incidents additionally report their
  ///                              sample-time delay in queued_delay_sec)
  obs::MetricRegistry& metrics() { return master_.metrics(); }
  const obs::MetricRegistry& metrics() const { return master_.metrics(); }

 private:
  struct AppState {
    AppSpec spec;
    sim::LatencySloMonitor latency;
    sim::ProgressSloMonitor progress;
    /// True from latch until re-arm: the incident is fired/queued and the
    /// stale latch must not re-trigger.
    bool handled = false;
    TimeSec good_streak = 0;       ///< latency re-arm progress
    double progress_anchor = 0.0;  ///< progress at latch (progress re-arm)
    netdep::DependencyGraph deps;  ///< per-app graph (when has_deps)
    bool has_deps = false;
  };
  struct PendingTrigger {
    std::size_t app = 0;
    TimeSec tv = 0;
  };

  /// Routes a latch: fire now, queue, or drop.
  bool latch(std::size_t app, TimeSec tv);
  void fire(std::size_t app, TimeSec tv);
  bool cooldownExpired() const;
  /// Advances the re-arm state machine; returns true while handled (the
  /// caller must then skip the latched monitor).
  bool updateRearm(AppState& state, double signal_good);

  OnlineMonitorConfig config_;
  core::FChainMaster master_;

  struct Transport {
    std::shared_ptr<runtime::SlaveEndpoint> endpoint;
    /// Components routed here: a batch this size is a complete tick.
    std::size_t tick_samples = 0;
    /// Queued samples; cleared after each send, so its capacity is reused.
    runtime::IngestBatchRequest batch;
  };
  /// Sends `transport`'s queued batch and counts the samples lost.
  void sendBatch(Transport& transport);
  std::vector<Transport> transports_;
  std::map<ComponentId, std::size_t> ingest_routes_;

  std::vector<AppState> apps_;
  netdep::DependencyGraph default_deps_;
  std::deque<PendingTrigger> pending_;
  std::vector<OnlineIncident> incidents_;
  IncidentCallback callback_;
  Localizer localizer_;  ///< empty = use the monitor's own master

  TimeSec clock_ = 0;
  bool fired_once_ = false;
  TimeSec last_fire_clock_ = 0;

  obs::Counter& metric_ingest_samples_ =
      master_.metrics().counter("online.ingest_samples");
  obs::Counter& metric_ingest_failures_ =
      master_.metrics().counter("online.ingest_failures");
  obs::Counter& metric_slo_latches_ =
      master_.metrics().counter("online.slo_latches");
  obs::Counter& metric_triggers_ = master_.metrics().counter("online.triggers");
  obs::Counter& metric_incidents_queued_ =
      master_.metrics().counter("online.incidents_queued");
  obs::Counter& metric_incidents_dropped_ =
      master_.metrics().counter("online.incidents_dropped");
  obs::Histogram& metric_trigger_latency_ms_ = master_.metrics().histogram(
      "online.trigger_latency_ms",
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
       5000.0, 10000.0});
};

}  // namespace fchain::online
