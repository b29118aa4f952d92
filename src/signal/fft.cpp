#include "signal/fft.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace fchain::signal {

namespace {

bool isPow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Cooley-Tukey iterative radix-2 over the plan's precomputed permutation
/// and twiddle tables. `inverse` selects the inverse twiddles;
/// normalization is the caller's job.
void transform(std::complex<double>* data, std::size_t n, bool inverse,
               const FftPlan& plan) {
  if (n <= 1) return;

  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  std::size_t stage_offset = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::complex<double>* tw =
        (inverse ? plan.inverse : plan.forward).data() + stage_offset;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + half] * tw[k];
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
    stage_offset += half;
  }
}

void fillTwiddles(std::size_t n, bool inverse,
                  std::vector<std::complex<double>>& out) {
  out.clear();
  out.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    // The exact accumulated-product sequence the reference transform
    // computes per block: identical rounding, hence bit-identical
    // butterflies.
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      out.push_back(w);
      w *= wlen;
    }
  }
}

}  // namespace

std::size_t nextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan FftPlan::make(std::size_t n) {
  if (!isPow2(n)) {
    throw std::invalid_argument("FftPlan: size not a power of two");
  }
  FftPlan plan;
  plan.n = n;
  plan.bitrev.resize(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan.bitrev[i] = static_cast<std::uint32_t>(j);
  }
  if (n > 1) {
    fillTwiddles(n, /*inverse=*/false, plan.forward);
    fillTwiddles(n, /*inverse=*/true, plan.inverse);
  }
  return plan;
}

void fftInPlace(std::span<std::complex<double>> data, const FftPlan& plan) {
  if (data.size() != plan.n) {
    throw std::invalid_argument("fftInPlace: plan size mismatch");
  }
  transform(data.data(), data.size(), /*inverse=*/false, plan);
}

void ifftInPlace(std::span<std::complex<double>> data, const FftPlan& plan) {
  if (data.size() != plan.n) {
    throw std::invalid_argument("ifftInPlace: plan size mismatch");
  }
  transform(data.data(), data.size(), /*inverse=*/true, plan);
  const double inv = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x *= inv;
}

void fftRealInto(std::span<const double> xs, const FftPlan& plan,
                 std::vector<std::complex<double>>& spectrum) {
  const std::size_t padded = nextPow2(std::max<std::size_t>(xs.size(), 1));
  if (padded != plan.n) {
    throw std::invalid_argument("fftRealInto: plan size mismatch");
  }
  spectrum.assign(xs.begin(), xs.end());
  spectrum.resize(padded);
  transform(spectrum.data(), padded, /*inverse=*/false, plan);
}

void ifftRealInto(std::span<std::complex<double>> spectrum,
                  const FftPlan& plan, std::span<double> out) {
  ifftInPlace(spectrum, plan);
  const std::size_t n = std::min(out.size(), spectrum.size());
  for (std::size_t i = 0; i < n; ++i) out[i] = spectrum[i].real();
}

}  // namespace fchain::signal
