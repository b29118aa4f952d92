// Diurnal workload intensity traces for the legacy paper applications.
//
// The paper modulates RUBiS request rates with the NASA web-server trace
// (July 1 1995) and System S tuple arrival rates with the ClarkNet trace
// (Aug 28 1995), both from the IRCache archive. Those archives are not
// redistributable here, so we provide synthetic generators with the same
// qualitative structure — a strong diurnal cycle, self-similar short-range
// burstiness, flash crowds, and heavy-tailed noise. The property FChain's
// evaluation needs is *realistic non-stationarity*, which these generators
// deliver.
//
// This is deliberately a second model next to sim::TraceConfig
// (sim/trace.h), not a special case of it: the generator below is stateful
// (AR(1) noise and Poisson flash crowds drawn from a threaded Rng), and the
// legacy goldens pin exactly those draws, while WorkloadTrace::intensityAt
// must stay a stateless function of (config, events, t) so cursor replay is
// bit-equal. Neither can adopt the other's arithmetic without breaking its
// identity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace fchain::sim {

struct DiurnalTraceConfig {
  /// Mean intensity (requests/s or tuples/s) around which the trace moves.
  double base_rate = 100.0;
  /// Peak-to-mean ratio of the daily cycle.
  double diurnal_amplitude = 0.5;
  /// Period of the daily cycle in seconds (86400 = real day; evaluation runs
  /// compress it so one-hour runs still see workload drift).
  double diurnal_period_sec = 7200.0;
  /// Relative magnitude of secondary (hour-scale) oscillation.
  double secondary_amplitude = 0.15;
  double secondary_period_sec = 610.0;
  /// Gaussian noise stddev relative to the instantaneous rate.
  double noise_level = 0.08;
  /// Expected flash-crowd events per hour; each multiplies the rate.
  double flash_per_hour = 1.5;
  double flash_magnitude = 0.6;   ///< peak relative increase
  double flash_duration_sec = 45; ///< exponential decay constant
  /// Phase offset so NASA-like and ClarkNet-like traces differ.
  double phase = 0.0;
};

/// A NASA-July-1995-like profile: pronounced day/night swing, moderate noise.
DiurnalTraceConfig nasaLikeConfig();

/// A ClarkNet-Aug-1995-like profile: higher base load, burstier, flatter cycle.
DiurnalTraceConfig clarknetLikeConfig();

/// Generates `seconds` samples of request intensity (>= 0), 1 Hz.
std::vector<double> generateDiurnalTrace(const DiurnalTraceConfig& config,
                                         std::size_t seconds, Rng& rng);

}  // namespace fchain::sim
