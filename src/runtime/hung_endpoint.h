// Test/chaos decorator: an endpoint that hangs instead of failing.
//
// FlakyEndpoint (flaky_endpoint.h) models a transport that *answers* badly;
// this models the failure mode the watchdog exists for — a call that never
// returns. While hung(), every request parks on a condition variable until
// release(); the caller (a watchdog sacrificial thread in real use) is stuck
// for exactly that long. inFlight() lets tests drain abandoned calls before
// tearing down: release() then wait for inFlight() == 0. The count covers
// the *whole* decorated call — a released thread is still in flight while it
// executes the inner endpoint's work, so a drained endpoint's slave is safe
// to destroy (counting only the parked window would let teardown race the
// abandoned thread's analysis: a use-after-free).
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "runtime/endpoint.h"

namespace fchain::runtime {

class HungEndpoint final : public SlaveEndpoint {
 public:
  explicit HungEndpoint(std::shared_ptr<SlaveEndpoint> inner,
                        bool start_hung = false)
      : inner_(std::move(inner)), hung_(start_hung) {}

  /// Subsequent (and currently arriving) calls block until release().
  void hang() {
    std::lock_guard<std::mutex> g(m_);
    hung_ = true;
  }

  /// Unblocks every parked call; new calls pass straight through.
  void release() {
    {
      std::lock_guard<std::mutex> g(m_);
      hung_ = false;
    }
    cv_.notify_all();
  }

  /// Unblocks every parked call as if the peer died mid-send: each one
  /// returns a Dropped reply (the torn half-frame a real socket reports)
  /// instead of reaching the inner endpoint — the partial-frame-delivery
  /// failure mode, same retryable taxonomy as SocketEndpoint's torn-frame
  /// handling. Calls arriving *after* this pass straight through: only the
  /// in-flight replies were cut off.
  void releaseWithTornReply() {
    {
      std::lock_guard<std::mutex> g(m_);
      hung_ = false;
      if (parked_ > 0) torn_release_ = true;
    }
    cv_.notify_all();
  }

  /// Calls abandoned by releaseWithTornReply().
  std::size_t tornReplies() const {
    std::lock_guard<std::mutex> g(m_);
    return torn_replies_;
  }

  /// Calls currently inside the endpoint — parked in the hang or executing
  /// the inner call (teardown drain for tests, see the header comment).
  int inFlight() const {
    std::lock_guard<std::mutex> g(m_);
    return in_flight_;
  }

  /// Calls currently parked in the hang window. inFlight() counts a call
  /// before it parks, so a test that must act on a *parked* call (e.g.
  /// releaseWithTornReply) waits on this instead.
  int parked() const {
    std::lock_guard<std::mutex> g(m_);
    return parked_;
  }

  HostId host() const override { return inner_->host(); }

  ComponentListReply listComponents() override {
    const InFlightGuard guard(*this);
    if (!maybeBlock()) return {EndpointStatus::Dropped, {}};
    return inner_->listComponents();
  }

  AnalyzeBatchReply analyzeBatch(const AnalyzeBatchRequest& request) override {
    const InFlightGuard guard(*this);
    if (!maybeBlock()) return {EndpointStatus::Dropped, {}, 0.0};
    return inner_->analyzeBatch(request);
  }

  IngestReply ingest(const IngestRequest& request) override {
    const InFlightGuard guard(*this);
    if (!maybeBlock()) return {EndpointStatus::Dropped, 0.0};
    return inner_->ingest(request);
  }

 private:
  /// Scopes in_flight_ over the whole decorated call, inner work included.
  struct InFlightGuard {
    explicit InFlightGuard(HungEndpoint& endpoint) : endpoint_(endpoint) {
      std::lock_guard<std::mutex> g(endpoint_.m_);
      ++endpoint_.in_flight_;
    }
    ~InFlightGuard() {
      std::lock_guard<std::mutex> g(endpoint_.m_);
      --endpoint_.in_flight_;
    }
    InFlightGuard(const InFlightGuard&) = delete;
    InFlightGuard& operator=(const InFlightGuard&) = delete;
    HungEndpoint& endpoint_;
  };

  /// False: the call was parked and then abandoned with a torn reply — the
  /// caller must return Dropped without touching the inner endpoint.
  bool maybeBlock() {
    std::unique_lock<std::mutex> g(m_);
    if (!hung_) return true;
    ++parked_;
    cv_.wait(g, [&] { return !hung_; });
    --parked_;
    if (torn_release_) {
      ++torn_replies_;
      if (parked_ == 0) torn_release_ = false;
      return false;
    }
    return true;
  }

  std::shared_ptr<SlaveEndpoint> inner_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  bool hung_ = false;
  bool torn_release_ = false;
  int in_flight_ = 0;
  int parked_ = 0;  ///< calls currently waiting in the hang window
  std::size_t torn_replies_ = 0;
};

}  // namespace fchain::runtime
