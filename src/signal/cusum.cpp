#include "signal/cusum.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "obs/trace.h"
#include "signal/scratch.h"

namespace fchain::signal {

namespace {

/// CUSUM range (max - min of the cumulative mean-centered sum) and the index
/// where |S| peaks, which estimates the change location.
struct CusumResult {
  double range = 0.0;
  std::size_t peak = 0;
  double mean = 0.0;  ///< segment mean (reused by the pooled bootstrap)
};

CusumResult cusumRange(std::span<const double> xs) {
  const double m = fchain::mean(xs);
  double s = 0.0;
  double lo = 0.0, hi = 0.0;
  double best_abs = 0.0;
  CusumResult result;
  result.mean = m;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    s += xs[i] - m;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    if (std::fabs(s) > best_abs) {
      best_abs = std::fabs(s);
      result.peak = i;
    }
  }
  result.range = hi - lo;
  return result;
}

/// Range only, over a permuted view of `xs` with the segment mean hoisted
/// (the mean is permutation-invariant up to summation order, and the pooled
/// bootstrap defines it as the unpermuted segment's mean). One fused gather
/// pass: no data movement, no buffer.
double cusumRangePermuted(std::span<const double> xs,
                          const std::uint32_t* perm, double mean) {
  double s = 0.0;
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    s += xs[perm[i]] - mean;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  return hi - lo;
}

/// Pooled bootstrap: does a random reordering produce as large a range at
/// least (1 - confidence) of the time? Aborts as soon as the answer can no
/// longer be "no" — exact same accept/reject decision and, for accepted
/// segments, the exact same confidence value as running every round (an
/// accepted segment by definition never hits the abort condition).
double pooledBootstrapConfidence(std::span<const double> xs,
                                 double observed_range, double segment_mean,
                                 const CusumConfig& config,
                                 SignalScratch& scratch) {
  const std::size_t rounds = config.bootstrap_rounds;
  if (rounds == 0) return 1.0;
  const auto perms = scratch.permutations(config.seed, rounds, xs.size());
  const auto rounds_f = static_cast<double>(rounds);
  std::size_t below = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint32_t* perm = perms.data() + round * xs.size();
    if (cusumRangePermuted(xs, perm, segment_mean) < observed_range) ++below;
    // Even if every remaining round lands below the observed range, the
    // final fraction cannot reach the significance bar: reject now.
    const std::size_t remaining = rounds - round - 1;
    if (static_cast<double>(below + remaining) / rounds_f <
        config.confidence) {
      return static_cast<double>(below) / rounds_f;
    }
  }
  return static_cast<double>(below) / rounds_f;
}

void detectRecursive(std::span<const double> xs, std::size_t offset,
                     const CusumConfig& config, SignalScratch& scratch,
                     std::vector<ChangePoint>& out) {
  if (xs.size() < config.min_segment * 2) return;
  if (out.size() >= config.max_change_points) return;

  const CusumResult observed = cusumRange(xs);
  if (observed.range <= 0.0) return;

  const double confidence = pooledBootstrapConfidence(
      xs, observed.range, observed.mean, config, scratch);
  if (confidence < config.confidence) return;

  // Change starts at the sample *after* the |S| peak.
  const std::size_t split = observed.peak + 1;
  if (split < config.min_segment || xs.size() - split < config.min_segment) {
    return;
  }

  const double before = fchain::mean(xs.subspan(0, split));
  const double after = fchain::mean(xs.subspan(split));
  out.push_back(ChangePoint{offset + split, confidence, after - before});

  detectRecursive(xs.subspan(0, split), offset, config, scratch, out);
  detectRecursive(xs.subspan(split), offset + split, config, scratch, out);
}

}  // namespace

std::vector<ChangePoint>& detectChangePointsInto(
    std::span<const double> xs, const CusumConfig& config,
    SignalScratch& scratch, std::vector<ChangePoint>& out) {
  // One span for the whole bootstrap/segmentation recursion — per-segment
  // spans would swamp the trace without adding signal.
  FCHAIN_SPAN_VAR(span, "signal.cusum");
  span.arg("n", static_cast<std::int64_t>(xs.size()));
  out.clear();
  detectRecursive(xs, 0, config, scratch, out);
  std::sort(out.begin(), out.end(),
            [](const ChangePoint& a, const ChangePoint& b) {
              return a.index < b.index;
            });
  return out;
}

std::vector<ChangePoint> detectChangePoints(std::span<const double> xs,
                                            const CusumConfig& config) {
  std::vector<ChangePoint> points;
  detectChangePointsInto(xs, config, threadScratch(), points);
  return points;
}

}  // namespace fchain::signal
