// Unit & property tests for signal/fft and signal/burst.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>

#include "common/rng.h"
#include "signal/burst.h"
#include "signal/fft.h"

namespace fchain::signal {
namespace {

/// Forward transform of a real signal through a plan built for it.
std::vector<std::complex<double>> plannedFft(std::span<const double> xs) {
  const FftPlan plan =
      FftPlan::make(nextPow2(std::max<std::size_t>(xs.size(), 1)));
  std::vector<std::complex<double>> spectrum;
  fftRealInto(xs, plan, spectrum);
  return spectrum;
}

/// Inverse transform back to the first `n` real samples.
std::vector<double> plannedIfft(std::vector<std::complex<double>> spectrum,
                                std::size_t n) {
  const FftPlan plan = FftPlan::make(spectrum.size());
  std::vector<double> out(n);
  ifftRealInto(spectrum, plan, out);
  return out;
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(nextPow2(1), 1u);
  EXPECT_EQ(nextPow2(2), 2u);
  EXPECT_EQ(nextPow2(3), 4u);
  EXPECT_EQ(nextPow2(41), 64u);
  EXPECT_EQ(nextPow2(64), 64u);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  fftInPlace(data, FftPlan::make(data.size()));
  for (const auto& bin : data) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, PureToneConcentratesInOneBin) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kFreq = 5;
  std::vector<double> xs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    xs[i] = std::sin(2.0 * std::numbers::pi * kFreq * i / kN);
  }
  const auto spectrum = plannedFft(xs);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < kN / 2; ++i) {
    if (std::abs(spectrum[i]) > std::abs(spectrum[peak])) peak = i;
  }
  EXPECT_EQ(peak, kFreq);
  // Conjugate symmetry of a real signal's spectrum.
  for (std::size_t i = 1; i < kN / 2; ++i) {
    EXPECT_NEAR(std::abs(spectrum[i]), std::abs(spectrum[kN - i]), 1e-9);
  }
}

TEST(Fft, NonPow2InputThrows) {
  EXPECT_THROW(FftPlan::make(12), std::invalid_argument);
  EXPECT_THROW(FftPlan::make(0), std::invalid_argument);
  // A plan only runs transforms of its own size.
  const FftPlan plan = FftPlan::make(8);
  std::vector<std::complex<double>> data(16, 0.0);
  EXPECT_THROW(fftInPlace(data, plan), std::invalid_argument);
  EXPECT_THROW(ifftInPlace(data, plan), std::invalid_argument);
  const std::vector<double> xs(12, 1.0);
  EXPECT_THROW(fftRealInto(xs, plan, data), std::invalid_argument);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(-10.0, 10.0);
  const auto back = plannedIfft(plannedFft(xs), n);
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], xs[i], 1e-9) << "i=" << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 3, 7, 8, 16, 41, 64, 100,
                                           128, 333, 1024));

TEST(Fft, ParsevalEnergyConservation) {
  constexpr std::size_t kN = 128;
  Rng rng(77);
  std::vector<double> xs(kN);
  double time_energy = 0.0;
  for (double& x : xs) {
    x = rng.gaussian();
    time_energy += x * x;
  }
  const auto spectrum = plannedFft(xs);
  double freq_energy = 0.0;
  for (const auto& bin : spectrum) freq_energy += std::norm(bin);
  EXPECT_NEAR(freq_energy / kN, time_energy, 1e-6);
}

// ---------------------------------------------------------------- burst ---

TEST(Burst, ConstantSignalHasZeroExpectedError) {
  std::vector<double> xs(41, 42.0);
  EXPECT_NEAR(expectedPredictionError(xs), 0.0, 1e-9);
}

TEST(Burst, SlowRampIsMostlyFilteredOut) {
  // A slow linear ramp is low-frequency content: the synthesized burst
  // signal should be small relative to the ramp's total swing.
  std::vector<double> xs;
  for (int i = 0; i < 41; ++i) xs.push_back(100.0 + 2.0 * i);  // swing 80
  EXPECT_LT(expectedPredictionError(xs), 20.0);
}

TEST(Burst, AlternatingSignalKeepsItsAmplitude) {
  // A +-A alternation is the highest frequency there is: the burst signal
  // carries essentially all of it.
  std::vector<double> xs;
  for (int i = 0; i < 41; ++i) xs.push_back(i % 2 == 0 ? 110.0 : 90.0);
  EXPECT_GT(expectedPredictionError(xs), 5.0);
}

TEST(Burst, BurstierSignalGetsHigherThreshold) {
  Rng rng(5);
  std::vector<double> calm, bursty;
  for (int i = 0; i < 41; ++i) {
    const double base = 50.0;
    calm.push_back(base + rng.gaussian(0.0, 1.0));
    bursty.push_back(base + rng.gaussian(0.0, 8.0));
  }
  EXPECT_GT(expectedPredictionError(bursty),
            2.0 * expectedPredictionError(calm));
}

TEST(Burst, TinyWindowsAreSafe) {
  // Cold-start semantic: a window shorter than min_window has no spectrum
  // to estimate burstiness from, so the expected error is +inf ("no
  // threshold yet" — nothing can look abnormal), not 0.0 (which made
  // *every* nonzero error look abnormal).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(expectedPredictionError(std::vector<double>{}), inf);
  EXPECT_EQ(expectedPredictionError(std::vector<double>{1.0}), inf);
  BurstConfig config;
  std::vector<double> window;
  for (std::size_t i = 0; i < config.min_window; ++i) {
    window.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  // One below the minimum: still cold. At the minimum: finite threshold.
  EXPECT_EQ(expectedPredictionError(
                std::span<const double>(window).subspan(1), config),
            inf);
  EXPECT_TRUE(std::isfinite(expectedPredictionError(window, config)));
  const auto burst = burstSignal(std::vector<double>{1.0});
  ASSERT_EQ(burst.size(), 1u);
  EXPECT_DOUBLE_EQ(burst[0], 0.0);
}

class BurstFraction : public ::testing::TestWithParam<double> {};

TEST_P(BurstFraction, HigherFractionKeepsMoreEnergy) {
  // Property: widening the high-frequency band can only add energy to the
  // burst signal (Parseval: each extra bin contributes non-negatively).
  Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 41; ++i) xs.push_back(rng.gaussian(100.0, 5.0));
  BurstConfig narrow;
  narrow.high_freq_fraction = GetParam();
  BurstConfig wide;
  wide.high_freq_fraction = std::min(1.0, GetParam() + 0.2);
  auto energy = [&](const BurstConfig& config) {
    double sum = 0.0;
    for (double b : burstSignal(xs, config)) sum += b * b;
    return sum;
  };
  EXPECT_LE(energy(narrow), energy(wide) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, BurstFraction,
                         ::testing::Values(0.3, 0.5, 0.7, 0.8));

}  // namespace
}  // namespace fchain::signal
