// Change point detection: CUSUM + bootstrap (paper §II-B, citing [21]).
//
// This is the classic Taylor-style procedure: the cumulative sum of
// mean-centered samples drifts when the level shifts; the magnitude of that
// drift is compared against bootstrap resamples of the same data to decide
// whether a change is statistically significant, and binary segmentation
// recurses into both halves to recover multiple change points. The paper
// notes (and Fig. 3 shows) that on fluctuating cloud metrics this yields many
// change points, most of which are normal workload fluctuation — filtering
// them is FChain's job, not CUSUM's.
//
// The bootstrap draws its resampling permutations from SignalScratch's
// permutation pool, a pure function of (seed, rounds, segment length), and
// applies them by gather — no per-round shuffle, no RNG in the loop, and the
// permutation-invariant segment mean is hoisted out of the rounds. Because
// segments share no RNG state, a segment whose significance is already
// decided aborts its remaining rounds early (the decision is provably
// unchanged), which is where most of the speed on fault-free metrics comes
// from. The frozen reference engine (signal/reference.h) keeps the original
// threaded-RNG Fisher-Yates bootstrap; the drawn permutations differ, so
// borderline confidences can differ in the last few bootstrap counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fchain::signal {

class SignalScratch;

struct CusumConfig {
  /// Bootstrap resamples per segment decision.
  std::size_t bootstrap_rounds = 200;
  /// Fraction of resamples that must show a smaller CUSUM range for the
  /// change to count as significant.
  double confidence = 0.95;
  /// Segments shorter than this are not split further.
  std::size_t min_segment = 6;
  /// Safety bound on recursion (maximum number of change points returned).
  std::size_t max_change_points = 64;
  /// Seed for the bootstrap permutations; fixed so detection is
  /// deterministic.
  std::uint64_t seed = 0xc0521bULL;
};

struct ChangePoint {
  /// Index into the analyzed span: the first sample of the new regime.
  std::size_t index = 0;
  /// Bootstrap confidence in [0, 1].
  double confidence = 0.0;
  /// Level shift across the change (mean after - mean before).
  double shift = 0.0;
};

/// Detects change points in `xs`, sorted by index. Runs on the calling
/// thread's scratch arena (threadScratch()).
std::vector<ChangePoint> detectChangePoints(std::span<const double> xs,
                                            const CusumConfig& config = {});

/// Zero-allocation variant: detects into `out` (cleared first), using
/// `scratch` for the bootstrap buffers. `out` may be (and in the hot path
/// is) scratch.points(). Returns `out` for convenience.
std::vector<ChangePoint>& detectChangePointsInto(std::span<const double> xs,
                                                 const CusumConfig& config,
                                                 SignalScratch& scratch,
                                                 std::vector<ChangePoint>& out);

}  // namespace fchain::signal
