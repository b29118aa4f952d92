// Benchmark-side span tracer and the timing SlaveEndpoint decorator.
//
// The program's own FCHAIN_TRACE instrumentation stays off: every span here
// is recorded by the benchmark around a call into one layer's public API
// (OnlineMonitor / FleetMonitor, SlaveEndpoint, FChainMaster). Spans nest on
// the replay thread; a span's self time is its duration minus the time its
// direct children cover. Per-layer totals are kept for every span, while the
// raw span log keeps the first spans of each layer, up to a cap, and is
// written as a Chrome trace at exit.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/endpoint.h"

namespace pipebench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  OnlineIngest,  ///< OnlineMonitor / FleetMonitor::ingest
  SlaveIngest,   ///< SlaveEndpoint::ingest into an in-process slave
  IngestRpc,     ///< SlaveEndpoint::ingest over a unix socket
  Observe,       ///< one tick's observe() calls + pump() that fired nothing
  Verdict,       ///< observe/pump that fired, or an on-demand localize
  Analyze,       ///< SlaveEndpoint::analyze / analyzeBatch (the selector)
  Count,
};

const char* layerName(Layer layer);

struct LayerTotals {
  std::uint64_t spans = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t spans_logged_per_layer)
      : log_cap_(spans_logged_per_layer) {}

  void begin(Layer layer) { open_.push_back({layer, nowNs(), 0}); }
  void end() { close(open_.back().layer); }
  /// Closes the innermost span, booking it under `layer` (an observe span
  /// that fired a localization becomes a verdict span).
  void end(Layer layer) { close(layer); }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Summed duration of every closed outermost span.
  std::int64_t topLevelNs() const { return top_level_ns_; }

  /// Selector work counted by the timing decorator.
  std::uint64_t analyzed_components = 0;
  std::uint64_t findings = 0;

  /// Writes the logged spans as a Chrome trace (chrome://tracing).
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Span {
    Layer layer;
    std::uint32_t depth;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  void close(Layer layer);

  std::vector<Open> open_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::Count)> totals_{};
  std::int64_t top_level_ns_ = 0;
  std::size_t log_cap_;
  std::array<std::size_t, static_cast<std::size_t>(Layer::Count)> logged_{};
  std::vector<Span> log_;
  std::uint64_t dropped_ = 0;
};

/// Forwards every call to `inner`, timing ingest (as `ingest_layer`) and
/// analysis into the tracer. The master's serial fan-out calls analyze()
/// per component; its parallel fan-out calls analyzeBatch() per slave. Single-threaded use only: the benchmark
/// runs every fan-out serially on the replay thread.
class TimingEndpoint final : public fchain::runtime::SlaveEndpoint {
 public:
  TimingEndpoint(std::shared_ptr<fchain::runtime::SlaveEndpoint> inner,
                 Tracer& tracer, Layer ingest_layer)
      : inner_(std::move(inner)), tracer_(tracer), ingest_layer_(ingest_layer) {}

  fchain::HostId host() const override { return inner_->host(); }
  fchain::runtime::ComponentListReply listComponents() override {
    return inner_->listComponents();
  }
  fchain::runtime::AnalyzeReply analyze(
      const fchain::runtime::AnalyzeRequest& request) override;
  fchain::runtime::AnalyzeBatchReply analyzeBatch(
      const fchain::runtime::AnalyzeBatchRequest& request) override;
  fchain::runtime::IngestReply ingest(
      const fchain::runtime::IngestRequest& request) override;

 private:
  std::shared_ptr<fchain::runtime::SlaveEndpoint> inner_;
  Tracer& tracer_;
  Layer ingest_layer_;
};

}  // namespace pipebench
