// The three pipeline workloads and what one run of them measures.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pipebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Raw measurements of one run; main() turns them into metrics.
struct RunResult {
  // --- end to end (untraced passes) ---
  std::vector<double> setup_s;       ///< per pass, traced passes included
  /// Replay time of each unit of identical work, with its slot: a fixed
  /// stretch of ticks (ingest workloads) or one roster recording
  /// (incident_mix). Every repeat of a slot replays the same bundles.
  struct ReplayUnit {
    std::size_t slot = 0;
    std::uint64_t bundles = 0;
    double ns = 0.0;
  };
  std::vector<ReplayUnit> replay;         ///< untraced passes
  std::vector<ReplayUnit> traced_replay;  ///< traced passes
  /// Untraced verdict latencies, each with its verdict slot (roster entry
  /// or probe): a slot replays identical work every time.
  std::vector<std::pair<std::size_t, double>> verdict_ms;
  /// ru_maxrss after the warm-up pass: one replay of the whole stream or
  /// roster. Later passes only add allocator fragmentation that depends on
  /// the run's length and order.
  double peak_rss_mb = 0.0;
  std::uint64_t verdicts = 0;        ///< every verdict, traced or not
  std::uint64_t hits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failure_notes;  ///< the first few, for stderr

  // --- information ---
  std::uint64_t bundles = 0;  ///< replayed in timed passes
  std::size_t passes = 0;
  double generation_s = 0.0;
  double warmup_s = 0.0;

  // --- per layer (traced passes) ---
  double slave_ingest_ns = 0.0;
  double online_ingest_self_ns = 0.0;
  double observe_ns = 0.0;
  double ingest_rpc_ns = 0.0;
  double frames_per_bundle = 0.0;
  double wire_encode_ns = 0.0;
  double wire_decode_ns = 0.0;
  double wire_bytes_per_bundle = 0.0;
  double selector_us_per_component = 0.0;
  double selector_finding_ratio = 0.0;
  double master_self_ms = 0.0;
  double pinpoint_us = 0.0;
  double merge_us = 0.0;
  double fanouts_per_verdict = 0.0;
  double layer_coverage = 0.0;
  std::string trace_file;

  /// Counts `count` failed operations and keeps a note on the first few.
  void fail(std::string note, std::uint64_t count = 1);
};

bool knownWorkload(const std::string& name);
RunResult runWorkload(const RunOptions& options);

}  // namespace pipebench
