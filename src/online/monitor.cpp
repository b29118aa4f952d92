#include "online/monitor.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/trace.h"

namespace fchain::online {

OnlineMonitor::OnlineMonitor(OnlineMonitorConfig config)
    : config_(std::move(config)), master_(config_.fchain, config_.retry) {
  master_.setWorkerThreads(config_.worker_threads);
}

void OnlineMonitor::addSlave(core::FChainSlave* slave) {
  addEndpoint(std::make_shared<runtime::LocalEndpoint>(slave),
              slave->components());
}

void OnlineMonitor::addEndpoint(
    std::shared_ptr<runtime::SlaveEndpoint> endpoint,
    const std::vector<ComponentId>& components) {
  master_.registerEndpoint(endpoint, components);  // throws on dup claims
  const std::size_t index = transports_.size();
  Transport& transport = transports_.emplace_back();
  transport.endpoint = std::move(endpoint);
  transport.tick_samples = components.size();
  transport.batch.samples.reserve(components.size());
  for (ComponentId id : components) ingest_routes_[id] = index;
}

std::size_t OnlineMonitor::addApplication(AppSpec spec) {
  if (spec.components.empty()) {
    throw std::invalid_argument("OnlineMonitor: application with no components");
  }
  const SloSpec slo = spec.slo;
  apps_.push_back(AppState{
      std::move(spec),
      sim::LatencySloMonitor(slo.latency_threshold_sec, slo.sustain_sec),
      sim::ProgressSloMonitor(slo.progress_window_sec, slo.progress_min_delta),
      /*handled=*/false,
      /*good_streak=*/0,
      /*progress_anchor=*/0.0,
      /*deps=*/netdep::DependencyGraph{},
      /*has_deps=*/false,
  });
  return apps_.size() - 1;
}

void OnlineMonitor::setDependencies(netdep::DependencyGraph graph) {
  default_deps_ = graph;
  master_.setDependencies(std::move(graph));
}

void OnlineMonitor::setDependencies(std::size_t app,
                                    netdep::DependencyGraph graph) {
  AppState& state = apps_.at(app);
  state.deps = std::move(graph);
  state.has_deps = true;
}

void OnlineMonitor::setWatchdog(runtime::WatchdogConfig config) {
  master_.setWatchdog(config);
}

void OnlineMonitor::setIncidentJournal(persist::IncidentJournal* journal) {
  master_.setIncidentJournal(journal);
}

void OnlineMonitor::ingest(ComponentId id, TimeSec t,
                           const std::array<double, kMetricCount>& sample) {
  clock_ = std::max(clock_, t);
  const auto route = ingest_routes_.find(id);
  if (route == ingest_routes_.end()) {
    // Unroutable component: no registered slave owns it.
    metric_ingest_failures_.add();
    return;
  }
  metric_ingest_samples_.add();

  Transport& transport = transports_[route->second];
  transport.batch.samples.push_back({id, t, sample});
  // A complete tick goes out inside the ingest() that completes it.
  if (transport.batch.samples.size() >= transport.tick_samples) {
    sendBatch(transport);
  }
}

void OnlineMonitor::sendBatch(Transport& transport) {
  transport.batch.deadline_ms = config_.ingest_deadline_ms;
  // Fire-and-forget: no retries (header contract). The slave's gap-fill
  // repairs a lost second on the next arrival.
  metric_ingest_failures_.add(transport.endpoint->ingestBatch(transport.batch));
  transport.batch.samples.clear();  // keeps the capacity for the next tick
}

void OnlineMonitor::flushIngest() {
  for (Transport& transport : transports_) {
    if (!transport.batch.samples.empty()) sendBatch(transport);
  }
}

bool OnlineMonitor::updateRearm(AppState& state, double good_signal) {
  if (!state.handled) return false;
  const SloSpec& slo = state.spec.slo;
  if (slo.kind == SloSpec::Kind::Latency) {
    if (good_signal <= slo.latency_threshold_sec) {
      if (++state.good_streak >= config_.rearm_good_sec) {
        state.latency.reset();
        state.handled = false;
        state.good_streak = 0;
      }
    } else {
      state.good_streak = 0;
    }
  } else {
    if (good_signal - state.progress_anchor >=
        slo.progress_min_delta *
            static_cast<double>(config_.rearm_good_sec)) {
      state.progress.reset();
      state.handled = false;
      state.good_streak = 0;
    }
  }
  return true;
}

bool OnlineMonitor::observeLatency(std::size_t app, TimeSec t,
                                   double latency_sec) {
  flushIngest();
  AppState& state = apps_.at(app);
  clock_ = std::max(clock_, t);
  if (updateRearm(state, latency_sec)) return false;
  const auto violation = state.latency.observe(t, latency_sec);
  if (!violation.has_value()) return false;
  return latch(app, *violation);
}

bool OnlineMonitor::observeProgress(std::size_t app, TimeSec t,
                                    double progress) {
  flushIngest();
  AppState& state = apps_.at(app);
  clock_ = std::max(clock_, t);
  if (updateRearm(state, progress)) return false;
  const auto violation = state.progress.observe(t, progress);
  if (!violation.has_value()) return false;
  state.progress_anchor = progress;
  return latch(app, *violation);
}

bool OnlineMonitor::observe(std::size_t app, const sim::StreamTick& tick) {
  return apps_.at(app).spec.slo.kind == SloSpec::Kind::Latency
             ? observeLatency(app, tick.t, tick.latency_sec)
             : observeProgress(app, tick.t, tick.progress);
}

bool OnlineMonitor::cooldownExpired() const {
  return !fired_once_ || clock_ - last_fire_clock_ >= config_.cooldown_sec;
}

bool OnlineMonitor::latch(std::size_t app, TimeSec tv) {
  AppState& state = apps_[app];
  state.handled = true;
  state.good_streak = 0;
  metric_slo_latches_.add();
  if (pending_.empty() && cooldownExpired()) {
    fire(app, tv);
    return true;
  }
  if (pending_.size() < config_.max_pending_incidents) {
    pending_.push_back({app, tv});
    metric_incidents_queued_.add();
  } else {
    metric_incidents_dropped_.add();
  }
  return false;
}

void OnlineMonitor::fire(std::size_t app, TimeSec tv) {
  FCHAIN_SPAN_VAR(span, "online.incident");
  span.arg("app", static_cast<std::int64_t>(app));
  span.arg("tv", static_cast<std::int64_t>(tv));
  const AppState& state = apps_[app];
  const auto wall_start = std::chrono::steady_clock::now();
  OnlineIncident incident;
  incident.app = app;
  incident.app_name = state.spec.name;
  incident.violation_time = tv;
  incident.triggered_at = clock_;
  incident.queued_delay_sec = clock_ - tv;
  const core::MasterRuntimeStats before = master_.runtimeStats();
  if (localizer_) {
    incident.result = localizer_(app, state.spec.components, tv);
  } else {
    // Dependency knowledge is per-application (see setDependencies): install
    // this app's graph — or the cluster default — for the fan-out. Fires are
    // serialized through latch()/pump(), so the swap cannot race a localize.
    master_.setDependencies(state.has_deps ? state.deps : default_deps_);
    incident.result = master_.localize(state.spec.components, tv);
  }
  const core::MasterRuntimeStats after = master_.runtimeStats();
  incident.watchdog_trips_delta = after.watchdog_trips - before.watchdog_trips;
  incident.deadline_skips_delta = after.deadline_skips - before.deadline_skips;
  incident.localize_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  metric_triggers_.add();
  metric_trigger_latency_ms_.observe(incident.localize_wall_ms);
  fired_once_ = true;
  last_fire_clock_ = clock_;
  incidents_.push_back(incident);
  if (callback_) callback_(incidents_.back());
}

std::size_t OnlineMonitor::pump() {
  flushIngest();
  std::size_t fired = 0;
  while (!pending_.empty() && cooldownExpired()) {
    const PendingTrigger next = pending_.front();
    pending_.pop_front();
    fire(next.app, next.tv);
    ++fired;
  }
  return fired;
}

std::size_t OnlineMonitor::drain() {
  flushIngest();
  std::size_t fired = 0;
  while (!pending_.empty()) {
    const PendingTrigger next = pending_.front();
    pending_.pop_front();
    fire(next.app, next.tv);
    ++fired;
  }
  return fired;
}

}  // namespace fchain::online
