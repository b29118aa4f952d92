// Unit tests for sim/diurnal: synthetic diurnal workload generation.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "sim/diurnal.h"

namespace fchain::sim {
namespace {

TEST(Trace, GeneratesRequestedLength) {
  Rng rng(1);
  const auto trace = generateDiurnalTrace(nasaLikeConfig(), 5000, rng);
  EXPECT_EQ(trace.size(), 5000u);
}

TEST(Trace, AllIntensitiesNonNegative) {
  Rng rng(2);
  for (double v : generateDiurnalTrace(clarknetLikeConfig(), 8000, rng)) {
    EXPECT_GE(v, 0.0);
  }
}

TEST(Trace, DeterministicForSameSeed) {
  Rng a(3), b(3);
  const auto ta = generateDiurnalTrace(nasaLikeConfig(), 1000, a);
  const auto tb = generateDiurnalTrace(nasaLikeConfig(), 1000, b);
  EXPECT_EQ(ta, tb);
}

TEST(Trace, MeanTracksBaseRate) {
  Rng rng(4);
  DiurnalTraceConfig config = nasaLikeConfig();
  config.flash_per_hour = 0.0;  // flashes bias the mean upward
  const auto trace =
      generateDiurnalTrace(config, static_cast<std::size_t>(
                                       config.diurnal_period_sec), rng);
  // Over one full period the sinusoids integrate to ~zero.
  EXPECT_NEAR(mean(trace), config.base_rate, config.base_rate * 0.1);
}

TEST(Trace, DiurnalCycleIsVisible) {
  Rng rng(5);
  DiurnalTraceConfig config = nasaLikeConfig();
  config.noise_level = 0.0;
  config.flash_per_hour = 0.0;
  config.secondary_amplitude = 0.0;
  const auto trace = generateDiurnalTrace(config, 7200, rng);
  // Peak near a quarter period, trough near three quarters.
  const double peak = trace[1800];
  const double trough = trace[5400];
  EXPECT_GT(peak, config.base_rate * 1.4);
  EXPECT_LT(trough, config.base_rate * 0.6);
}

TEST(Trace, FlashCrowdsAddBursts) {
  DiurnalTraceConfig calm = nasaLikeConfig();
  calm.flash_per_hour = 0.0;
  DiurnalTraceConfig flashy = calm;
  flashy.flash_per_hour = 30.0;
  Rng a(6), b(6);
  const auto calm_trace = generateDiurnalTrace(calm, 7200, a);
  const auto flashy_trace = generateDiurnalTrace(flashy, 7200, b);
  EXPECT_GT(maxValue(flashy_trace), maxValue(calm_trace) * 1.2);
}

}  // namespace
}  // namespace fchain::sim
