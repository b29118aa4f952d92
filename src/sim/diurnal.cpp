#include "sim/diurnal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace fchain::sim {

DiurnalTraceConfig nasaLikeConfig() {
  DiurnalTraceConfig config;
  config.base_rate = 100.0;
  config.diurnal_amplitude = 0.55;
  config.diurnal_period_sec = 7200.0;
  config.secondary_amplitude = 0.18;
  config.secondary_period_sec = 590.0;
  config.noise_level = 0.08;
  config.flash_per_hour = 1.2;
  config.flash_magnitude = 0.5;
  config.flash_duration_sec = 40.0;
  config.phase = 0.0;
  return config;
}

DiurnalTraceConfig clarknetLikeConfig() {
  DiurnalTraceConfig config;
  config.base_rate = 140.0;
  config.diurnal_amplitude = 0.35;
  config.diurnal_period_sec = 6400.0;
  config.secondary_amplitude = 0.22;
  config.secondary_period_sec = 710.0;
  config.noise_level = 0.12;
  config.flash_per_hour = 2.2;
  config.flash_magnitude = 0.7;
  config.flash_duration_sec = 30.0;
  config.phase = std::numbers::pi / 3.0;
  return config;
}

std::vector<double> generateDiurnalTrace(const DiurnalTraceConfig& config,
                                         std::size_t seconds, Rng& rng) {
  std::vector<double> trace;
  trace.reserve(seconds);

  // Flash crowds arrive as a Poisson process; each adds an exponentially
  // decaying multiplicative bump.
  double flash_boost = 0.0;
  const double flash_prob_per_sec = config.flash_per_hour / 3600.0;
  // AR(1) noise gives short-range correlation (self-similar-ish burstiness)
  // instead of white noise.
  double ar_noise = 0.0;
  const double ar_rho = 0.85;

  for (std::size_t t = 0; t < seconds; ++t) {
    const double tt = static_cast<double>(t);
    const double daily =
        std::sin(2.0 * std::numbers::pi * tt / config.diurnal_period_sec +
                 config.phase);
    const double hourly =
        std::sin(2.0 * std::numbers::pi * tt / config.secondary_period_sec +
                 2.0 * config.phase);
    double rate = config.base_rate *
                  (1.0 + config.diurnal_amplitude * daily +
                   config.secondary_amplitude * hourly);

    if (rng.chance(flash_prob_per_sec)) {
      flash_boost += config.flash_magnitude;
    }
    flash_boost *= std::exp(-1.0 / config.flash_duration_sec);
    rate *= 1.0 + flash_boost;

    ar_noise = ar_rho * ar_noise +
               std::sqrt(1.0 - ar_rho * ar_rho) * rng.gaussian();
    rate *= 1.0 + config.noise_level * ar_noise;

    trace.push_back(std::max(0.0, rate));
  }
  return trace;
}

}  // namespace fchain::sim
