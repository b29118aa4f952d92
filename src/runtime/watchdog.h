// Deadline-bounded localization: wall-time watchdog for endpoint calls.
//
// The retry/health machinery (health.h) handles endpoints that *answer
// badly* — drops, timeouts, outages are reply statuses the transport
// returns. It cannot handle an endpoint that simply never returns: a hung
// RPC library, a slave wedged in D-state, a half-dead network connection.
// One such call would freeze a localization running inline on the caller's
// thread (or park a pool worker forever) and blow through any SLO on
// diagnosis latency.
//
// callWithWallTimeout() bounds that: the call runs on a sacrificial thread
// and the caller waits at most `timeout_ms` of real wall time. On timeout
// the caller walks away with nullopt and the thread is abandoned — it
// finishes (or hangs) on its own and drops its result into a shared block
// kept alive by shared_ptr, never touching the caller again. Crucially the
// per-endpoint mutex must be acquired *inside* the sacrificial thread (the
// master passes a closure that locks first): an abandoned call then wedges
// only that endpoint's serialization, not the coordinator or a pool worker.
//
// Everything here is wall-clock by definition, so it is OFF by default
// (WatchdogConfig zeros) — the deterministic simulated-time paths and the
// golden tests are untouched unless a deployment opts in.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace fchain::runtime {

struct WatchdogConfig {
  /// Wall-time bound on one endpoint call (ms). A localization's call to a
  /// slave is one batch covering all its components, so size this for the
  /// slowest slave's whole batch. 0 disables the per-call watchdog: calls
  /// run on the calling thread, exactly the pre-watchdog behaviour.
  double call_timeout_ms = 0.0;
  /// Wall-time budget for one whole localize() (ms). When exhausted the
  /// master stops issuing endpoint work; the remaining components land in
  /// PinpointResult::unanalyzed (degraded-mode coverage). 0 disables it.
  double localize_deadline_ms = 0.0;
  /// Consecutive watchdog trips on one endpoint before its circuit breaker
  /// opens (see breaker.h).
  int breaker_trip_after = 2;
  /// Denied requests while open before the breaker lets one probe through.
  int breaker_probe_after = 2;

  bool enabled() const {
    return call_timeout_ms > 0.0 || localize_deadline_ms > 0.0;
  }
};

/// Runs `fn` on a sacrificial thread; returns its result, or nullopt when it
/// did not finish within `timeout_ms` wall milliseconds. The abandoned
/// thread keeps the shared result block (and everything `fn` captured by
/// value) alive until it eventually finishes; its late result is discarded.
template <typename Fn>
auto callWithWallTimeout(Fn&& fn, double timeout_ms)
    -> std::optional<decltype(fn())> {
  using R = decltype(fn());
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    std::optional<R> result;
    bool done = false;
  };
  auto shared = std::make_shared<Shared>();
  std::thread([shared, fn = std::forward<Fn>(fn)]() mutable {
    R r = fn();
    std::lock_guard<std::mutex> g(shared->m);
    shared->result = std::move(r);
    shared->done = true;
    shared->cv.notify_all();
  }).detach();

  std::unique_lock<std::mutex> g(shared->m);
  if (!shared->cv.wait_for(g,
                           std::chrono::duration<double, std::milli>(
                               timeout_ms),
                           [&] { return shared->done; })) {
    return std::nullopt;
  }
  return std::move(shared->result);
}

}  // namespace fchain::runtime
