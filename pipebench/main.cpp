// Pipeline benchmark: replays pre-generated telemetry through FChain's
// online API (OnlineMonitor, FleetMonitor, SlaveEndpoint) and reports
// ingest throughput, sample-to-verdict latency and per-layer cost.
//
// Usage: pipebench --workload <ingest_local|ingest_unix|incident_mix>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--git-sha <sha>] [--source-digest <hex>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// (from a run alternating untraced and traced passes) with --trace 1. The
// line before it carries run metadata.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PIPEBENCH_COMPILER
#define PIPEBENCH_COMPILER "unknown"
#endif

namespace {

using pipebench::RunResult;

/// Linear-interpolation quantile (numpy's default).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t below = static_cast<std::size_t>(position);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

// Other tenants of a shared machine slow a run down, and now and then
// speed it up, in phases lasting milliseconds to minutes. A slot (a verdict
// slot, or a unit of replay) repeats identical work, so its time is read as
// the median of its repeats.
constexpr double kSlotQuantile = 0.5;

/// p50 and p95 over every verdict, each at its slot's median.
double verdictPercentile(
    const std::vector<std::pair<std::size_t, double>>& verdicts, double q) {
  std::map<std::size_t, std::vector<double>> by_slot;
  for (const auto& [slot, ms] : verdicts) by_slot[slot].push_back(ms);
  std::vector<double> mix;
  for (const auto& [slot, repeats] : by_slot) {
    mix.insert(mix.end(), repeats.size(), quantile(repeats, kSlotQuantile));
  }
  return quantile(std::move(mix), q);
}

/// Every replayed bundle over the summed replay time, each unit counted at
/// its slot's median.
double replayRate(const std::vector<RunResult::ReplayUnit>& units) {
  std::map<std::size_t, std::vector<double>> by_slot;
  std::map<std::size_t, std::uint64_t> bundles_of;
  for (const RunResult::ReplayUnit& unit : units) {
    by_slot[unit.slot].push_back(unit.ns);
    bundles_of[unit.slot] = unit.bundles;
  }
  double bundles = 0.0;
  double ns = 0.0;
  for (const auto& [slot, repeats] : by_slot) {
    const double count = static_cast<double>(repeats.size());
    bundles += count * static_cast<double>(bundles_of[slot]);
    ns += count * quantile(repeats, kSlotQuantile);
  }
  return ns > 0 ? bundles / (ns / 1e9) : 0.0;
}

// The closed loop never has more than one runnable thread: the replay
// thread waits on every ingest RPC its slave service answers. Keeping the
// whole run, and the service threads it starts, on the CPU it began on
// turns each RPC hand-off into a context switch on that CPU. Without the
// pin, each hand-off wakes another virtual CPU, and on a shared host that
// wake-up alone varied the unix-socket ingest rate by up to 3x between
// runs.
void pinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::vector<Metric> endToEnd(const RunResult& r) {
  return {
      {"setup_s", quantile(r.setup_s, 0.5), "s"},
      {"ingest_bundles_per_s", replayRate(r.replay), "1/s"},
      {"verdict_ms_p50", verdictPercentile(r.verdict_ms, 0.5), "ms"},
      {"verdict_ms_p95", verdictPercentile(r.verdict_ms, 0.95), "ms"},
      {"verdict_hit_ratio",
       r.verdicts > 0 ? static_cast<double>(r.hits) /
                            static_cast<double>(r.verdicts)
                      : 0.0,
       "ratio"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> perLayer(const RunResult& r) {
  const double untraced = replayRate(r.replay);
  return {
      {"fchain.slave.ingest_ns", r.slave_ingest_ns, "ns"},
      {"online.ingest_self_ns", r.online_ingest_self_ns, "ns"},
      {"online.observe_ns", r.observe_ns, "ns"},
      {"runtime.ingest_rpc_ns", r.ingest_rpc_ns, "ns"},
      {"runtime.frames_per_bundle", r.frames_per_bundle, "frames/bundle"},
      {"runtime.wire_encode_ns", r.wire_encode_ns, "ns"},
      {"runtime.wire_decode_ns", r.wire_decode_ns, "ns"},
      {"runtime.wire_bytes_per_bundle", r.wire_bytes_per_bundle, "B/bundle"},
      {"fchain.selector.us_per_component", r.selector_us_per_component, "us"},
      {"fchain.selector.finding_ratio", r.selector_finding_ratio, "ratio"},
      {"fchain.master.self_ms", r.master_self_ms, "ms"},
      {"fchain.pinpoint.us", r.pinpoint_us, "us"},
      {"fleet.merge_us", r.merge_us, "us"},
      {"fleet.fanouts_per_verdict", r.fanouts_per_verdict, "fanouts/verdict"},
      {"obs.trace_overhead_ratio",
       untraced > 0 ? replayRate(r.traced_replay) / untraced : 0.0, "ratio"},
      {"obs.layer_coverage", r.layer_coverage, "ratio"},
  };
}

void usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload <ingest_local|ingest_unix|"
               "incident_mix> --seed <n> --seconds <s> --trace <0|1>\n");
}

}  // namespace

int main(int argc, char** argv) {
  pipebench::RunOptions options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || !pipebench::knownWorkload(options.workload) ||
      !(options.seconds > 0)) {
    usage();
    return 2;
  }

  pinToCurrentCpu();
  RunResult result;
  try {
    result = pipebench::runWorkload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pipebench: %s\n", error.what());
    return 1;
  }
  for (const std::string& note : result.failure_notes) {
    std::fprintf(stderr, "pipebench: FAILED %s\n", note.c_str());
  }

  const std::vector<Metric> metrics =
      options.trace ? perLayer(result) : endToEnd(result);
  bool finite = true;
  for (const Metric& metric : metrics) finite &= std::isfinite(metric.value);

  std::printf(
      "{\"meta\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"git_sha\":%s,\"source_digest\":%s,\"build_type\":%s,"
      "\"compiler\":%s,\"nproc\":%u,\"passes\":%zu,\"bundles\":%llu,"
      "\"verdicts\":%llu,\"generation_s\":%.6f,\"warmup_s\":%.6f,"
      "\"trace_file\":%s}}\n",
      jsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, jsonString(git_sha).c_str(),
      jsonString(source_digest).c_str(),
      jsonString(PIPEBENCH_BUILD_TYPE).c_str(),
      jsonString(PIPEBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), result.passes,
      static_cast<unsigned long long>(result.bundles),
      static_cast<unsigned long long>(result.verdicts), result.generation_s,
      result.warmup_s, jsonString(result.trace_file).c_str());

  std::string line = "{\"correct\": ";
  line += result.failed == 0 && finite ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line += (i > 0 ? ", " : "");
    line += "\"" + std::string(metrics[i].name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
