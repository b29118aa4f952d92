// Frozen pre-optimization signal kernels. See reference.h — do not edit
// these implementations; the identity tests and the bench speedup gate both
// assume they stay exactly as the original engine shipped them.
#include "signal/reference.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"
#include "signal/fft.h"

namespace fchain::signal::reference {

namespace {

// --- Unplanned FFT: the transform the planned one must reproduce --------

bool isPow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Cooley-Tukey iterative radix-2 with bit-reversal permutation.
/// `inverse` flips the twiddle sign; normalization is the caller's job.
void transform(std::complex<double>* data, std::size_t n, bool inverse) {
  if (n <= 1) return;
  if (!isPow2(n)) throw std::invalid_argument("fft: size not a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + half] * w;
        data[i + k] = u + v;
        data[i + k + half] = u - v;
        w *= wlen;
      }
    }
  }
}

void fftInPlace(std::vector<std::complex<double>>& data) {
  transform(data.data(), data.size(), /*inverse=*/false);
}

void ifftInPlace(std::vector<std::complex<double>>& data) {
  transform(data.data(), data.size(), /*inverse=*/true);
  const double inv = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x *= inv;
}

std::vector<std::complex<double>> fftReal(std::span<const double> xs) {
  const std::size_t padded = nextPow2(std::max<std::size_t>(xs.size(), 1));
  // Reserve the padded size up front: bulk-assign the samples, then extend
  // with zero padding inside the same buffer — one allocation total.
  std::vector<std::complex<double>> data;
  data.reserve(padded);
  data.assign(xs.begin(), xs.end());
  data.resize(padded);
  fftInPlace(data);
  return data;
}

std::vector<double> ifftToReal(std::vector<std::complex<double>>&& spectrum,
                               std::size_t n) {
  ifftInPlace(spectrum);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n && i < spectrum.size(); ++i) {
    out.push_back(spectrum[i].real());
  }
  return out;
}

// --- CUSUM + bootstrap ---------------------------------------------------

struct CusumResult {
  double range = 0.0;
  std::size_t peak = 0;
};

CusumResult cusumRange(std::span<const double> xs) {
  const double m = fchain::mean(xs);
  double s = 0.0;
  double lo = 0.0, hi = 0.0;
  double best_abs = 0.0;
  CusumResult result;
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

void detectRecursive(std::span<const double> xs, std::size_t offset,
                     const CusumConfig& config, fchain::Rng& rng,
                     std::vector<ChangePoint>& out) {
  if (xs.size() < config.min_segment * 2) return;
  if (out.size() >= config.max_change_points) return;

  const CusumResult observed = cusumRange(xs);
  if (observed.range <= 0.0) return;

  // Bootstrap: how often does a random reordering produce as large a range?
  std::vector<double> shuffled(xs.begin(), xs.end());
  std::size_t below = 0;
  for (std::size_t round = 0; round < config.bootstrap_rounds; ++round) {
    // Fisher-Yates with our deterministic RNG.
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
    }
    if (cusumRange(shuffled).range < observed.range) ++below;
  }
  const double confidence =
      static_cast<double>(below) / static_cast<double>(config.bootstrap_rounds);
  if (confidence < config.confidence) return;

  // Change starts at the sample *after* the |S| peak.
  const std::size_t split = observed.peak + 1;
  if (split < config.min_segment || xs.size() - split < config.min_segment) {
    return;
  }

  const double before = fchain::mean(xs.subspan(0, split));
  const double after = fchain::mean(xs.subspan(split));
  out.push_back(ChangePoint{offset + split, confidence, after - before});

  detectRecursive(xs.subspan(0, split), offset, config, rng, out);
  detectRecursive(xs.subspan(split), offset + split, config, rng, out);
}

double tangentAt(std::span<const double> xs, std::size_t index,
                 std::size_t half_window) {
  if (xs.empty()) return 0.0;
  const std::size_t lo = index > half_window ? index - half_window : 0;
  const std::size_t hi = std::min(xs.size(), index + half_window + 1);
  if (hi <= lo + 1) return 0.0;
  return fchain::slope(xs.subspan(lo, hi - lo));
}

}  // namespace

void unplannedFft(std::vector<std::complex<double>>& data) {
  fftInPlace(data);
}

void unplannedIfft(std::vector<std::complex<double>>& data) {
  ifftInPlace(data);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty span");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> movingAverage(std::span<const double> xs,
                                  std::size_t half) {
  std::vector<double> out(xs.begin(), xs.end());
  if (half == 0 || xs.size() < 2) return out;
  const auto n = static_cast<std::ptrdiff_t>(xs.size());
  const auto h = static_cast<std::ptrdiff_t>(half);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - h);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(n - 1, i + h);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) {
      sum += xs[static_cast<std::size_t>(j)];
    }
    out[static_cast<std::size_t>(i)] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<ChangePoint> detectChangePoints(std::span<const double> xs,
                                            const CusumConfig& config) {
  std::vector<ChangePoint> points;
  fchain::Rng rng(config.seed);
  detectRecursive(xs, 0, config, rng, points);
  std::sort(points.begin(), points.end(),
            [](const ChangePoint& a, const ChangePoint& b) {
              return a.index < b.index;
            });
  return points;
}

std::vector<ChangePoint> outlierChangePoints(
    std::span<const ChangePoint> points, const OutlierConfig& config) {
  std::vector<ChangePoint> out;
  if (points.size() < 3) {
    out.assign(points.begin(), points.end());
    return out;
  }

  std::vector<double> magnitudes;
  magnitudes.reserve(points.size());
  for (const auto& p : points) magnitudes.push_back(std::fabs(p.shift));

  const double med = fchain::median(magnitudes);
  const double mad = fchain::medianAbsDeviation(magnitudes);
  const double robust_sigma = 1.4826 * mad;

  for (const auto& p : points) {
    const double magnitude = std::fabs(p.shift);
    bool is_outlier;
    if (robust_sigma > 1e-12) {
      is_outlier = (magnitude - med) / robust_sigma > config.mad_zscore;
    } else {
      is_outlier = med > 1e-12 && magnitude > config.degenerate_ratio * med;
    }
    if (is_outlier) out.push_back(p);
  }
  return out;
}

std::vector<double> burstSignal(std::span<const double> xs,
                                const BurstConfig& config) {
  const std::size_t n = xs.size();
  if (n < 2) return std::vector<double>(n, 0.0);

  const double m = fchain::mean(xs);
  std::vector<double> centered(xs.begin(), xs.end());
  for (double& x : centered) x -= m;

  auto spectrum = fftReal(centered);
  const std::size_t len = spectrum.size();
  const double nyquist = static_cast<double>(len / 2);
  const double cutoff = (1.0 - config.high_freq_fraction) * nyquist;
  for (std::size_t i = 0; i < len; ++i) {
    const double freq = static_cast<double>(std::min(i, len - i));
    if (freq < cutoff || i == 0) spectrum[i] = 0.0;
  }
  return ifftToReal(std::move(spectrum), n);
}

double expectedPredictionError(std::span<const double> xs,
                               const BurstConfig& config) {
  if (xs.size() < 2) return 0.0;
  // Qualified: ADL on BurstConfig would otherwise also find the optimized
  // engine's overload in the enclosing namespace.
  auto burst = reference::burstSignal(xs, config);
  for (double& b : burst) b = std::fabs(b);
  return percentile(burst, config.magnitude_percentile);
}

std::size_t rollbackOnset(std::span<const double> xs,
                          std::span<const ChangePoint> points,
                          std::size_t selected,
                          const RollbackConfig& config) {
  if (points.empty() || selected >= points.size()) return selected;

  double scale = fchain::medianAbsDeviation(xs) * 1.4826;
  if (scale < 1e-9) scale = std::max(1e-9, fchain::stddev(xs));

  const double anchor_sign = points[selected].shift >= 0.0 ? 1.0 : -1.0;
  std::size_t current = selected;
  while (current > 0) {
    if (points[current - 1].shift * anchor_sign < 0.0) break;
    const double tangent_cur =
        tangentAt(xs, points[current].index, config.tangent_half_window);
    const double tangent_prev =
        tangentAt(xs, points[current - 1].index, config.tangent_half_window);
    const double closeness =
        config.relative_epsilon *
            std::max(std::fabs(tangent_cur), std::fabs(tangent_prev)) +
        config.scale_floor * scale;
    if (std::fabs(tangent_cur - tangent_prev) >= closeness) break;
    --current;
  }
  return current;
}

}  // namespace fchain::signal::reference
