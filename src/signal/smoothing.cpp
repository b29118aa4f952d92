#include "signal/smoothing.h"

#include <algorithm>

namespace fchain::signal {

std::vector<double>& movingAverageInto(std::span<const double> xs,
                                       std::size_t half,
                                       std::vector<double>& out) {
  out.assign(xs.begin(), xs.end());
  if (half == 0 || xs.size() < 2) return out;
  const auto n = static_cast<std::ptrdiff_t>(xs.size());
  const auto h = static_cast<std::ptrdiff_t>(half);
  // Per-window ascending sums, not a sliding running sum: a running sum
  // accumulates rounding differently and would break bit-identity with the
  // reference engine. The window is tiny (half <= 3 in the pipeline), so the
  // rescan costs nothing measurable.
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - h);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(n - 1, i + h);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) sum += xs[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i)] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<double> movingAverage(std::span<const double> xs,
                                  std::size_t half) {
  std::vector<double> out;
  movingAverageInto(xs, half, out);
  return out;
}

}  // namespace fchain::signal
