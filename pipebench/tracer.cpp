#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace pipebench {

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::OnlineIngest: return "online.ingest";
    case Layer::SlaveIngest: return "fchain.slave.ingest";
    case Layer::IngestRpc: return "runtime.ingest_rpc";
    case Layer::Observe: return "online.observe";
    case Layer::Verdict: return "fchain.master.verdict";
    case Layer::Analyze: return "fchain.slave.analyze";
    case Layer::Count: break;
  }
  return "unknown";
}

void Tracer::close(Layer layer) {
  const std::int64_t end_ns = nowNs();
  const Open span = open_.back();
  open_.pop_back();
  const std::int64_t duration = end_ns - span.start_ns;
  LayerTotals& totals = totals_[static_cast<std::size_t>(layer)];
  ++totals.spans;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (open_.empty()) {
    top_level_ns_ += duration;
  } else {
    open_.back().child_ns += duration;
  }
  std::size_t& logged = logged_[static_cast<std::size_t>(layer)];
  if (logged < log_cap_) {
    ++logged;
    log_.push_back({layer, static_cast<std::uint32_t>(open_.size()),
                    span.start_ns, end_ns});
  } else {
    ++dropped_;
  }
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = log_.empty() ? 0 : log_.front().start_ns;
  for (const Span& span : log_) origin = std::min(origin, span.start_ns);
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Span& span = log_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%u}}%s\n",
                 layerName(span.layer),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.depth, i + 1 < log_.size() ? "," : "");
  }
  std::fprintf(out, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(out) == 0;
}

fchain::runtime::AnalyzeReply TimingEndpoint::analyze(
    const fchain::runtime::AnalyzeRequest& request) {
  tracer_.begin(Layer::Analyze);
  fchain::runtime::AnalyzeReply reply = inner_->analyze(request);
  tracer_.end();
  ++tracer_.analyzed_components;
  if (reply.finding.has_value()) ++tracer_.findings;
  return reply;
}

fchain::runtime::AnalyzeBatchReply TimingEndpoint::analyzeBatch(
    const fchain::runtime::AnalyzeBatchRequest& request) {
  tracer_.begin(Layer::Analyze);
  fchain::runtime::AnalyzeBatchReply reply = inner_->analyzeBatch(request);
  tracer_.end();
  tracer_.analyzed_components += request.components.size();
  for (const auto& finding : reply.findings) {
    if (finding.has_value()) ++tracer_.findings;
  }
  return reply;
}

fchain::runtime::IngestReply TimingEndpoint::ingest(
    const fchain::runtime::IngestRequest& request) {
  tracer_.begin(ingest_layer_);
  const fchain::runtime::IngestReply reply = inner_->ingest(request);
  tracer_.end();
  return reply;
}

}  // namespace pipebench
