// Frozen reference signal engine.
//
// These are the pre-optimization implementations of the signal kernels,
// kept verbatim (allocations, per-round means, RNG threading, the unplanned
// FFT and all) for two jobs:
//
//   1. Oracle for the serial ≡ optimized identity tests: the scratch-arena
//      engine's stateless kernels (smoothing, planned FFT, burst, outlier,
//      rollback) must reproduce these outputs bit for bit, and its pooled
//      bootstrap must make the same segmentation whenever the bootstrap
//      decision is forced (confidence 0).
//   2. In-binary baseline for the throughput bench: the CI speedup gate is
//      the ratio of the optimized engine to this engine measured in the
//      same run on the same machine, so the floor is hardware-independent.
//
// Do not "improve" this code — its value is that it never changes. It is
// deliberately not wired into any production path.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "signal/burst.h"
#include "signal/cusum.h"
#include "signal/outlier.h"
#include "signal/tangent.h"

namespace fchain::signal::reference {

/// Pre-optimization percentile (no NaN guard, interpolation arithmetic at
/// the endpoints — see fchain::percentile for the fixed contract).
double percentile(std::span<const double> xs, double p);

std::vector<double> movingAverage(std::span<const double> xs,
                                  std::size_t half);

/// Original CUSUM + bootstrap: one RNG threaded through the segmentation
/// recursion, a fresh shuffle buffer per segment, the segment mean
/// recomputed inside every bootstrap round.
std::vector<ChangePoint> detectChangePoints(std::span<const double> xs,
                                            const CusumConfig& config = {});

std::vector<ChangePoint> outlierChangePoints(
    std::span<const ChangePoint> points, const OutlierConfig& config = {});

/// The unplanned radix-2 transform behind burstSignal, in place over a
/// power-of-two buffer; the inverse includes the 1/N normalization. Public
/// only so the identity tests can hold the planned FFT against it.
void unplannedFft(std::vector<std::complex<double>>& data);
void unplannedIfft(std::vector<std::complex<double>>& data);

std::vector<double> burstSignal(std::span<const double> xs,
                                const BurstConfig& config = {});

/// Original cold-start semantic: returns 0.0 for windows shorter than 2
/// samples. Ignores config.min_window.
double expectedPredictionError(std::span<const double> xs,
                               const BurstConfig& config = {});

std::size_t rollbackOnset(std::span<const double> xs,
                          std::span<const ChangePoint> points,
                          std::size_t selected,
                          const RollbackConfig& config = {});

}  // namespace fchain::signal::reference
