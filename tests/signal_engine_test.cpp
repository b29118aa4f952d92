// Serial ≡ optimized identity suite for the scratch-arena signal engine.
//
// The optimized engine must be provably equivalent to the frozen reference
// engine (signal/reference.h):
//   - The stateless kernels (smoothing, planned FFT, burst, outlier,
//     rollback) are bit-identical to the reference's.
//   - CUSUM segmentation is bit-identical when the bootstrap decision is
//     forced (confidence 0): the two engines draw different permutations,
//     so only index and shift are comparable.
//   - The pooled bootstrap is deterministic (scratch reuse, fresh arenas
//     and thread count must not matter), and its early exit must make
//     exactly the accept/reject decisions a full-round run makes, with the
//     exact confidence on accepted segments.
//   - Steady state allocates nothing: after one warm-up pass, the whole
//     per-VM kernel chain runs without touching operator new.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fchain/slave.h"
#include "signal/burst.h"
#include "signal/cusum.h"
#include "signal/fft.h"
#include "signal/outlier.h"
#include "signal/reference.h"
#include "signal/scratch.h"
#include "signal/smoothing.h"
#include "signal/tangent.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fchain::signal {
namespace {

/// Noisy random walk with two injected level shifts — enough structure for
/// every pipeline stage (CUSUM accepts, outliers exist, rollback walks).
std::vector<double> faultyStream(std::uint64_t seed, std::size_t n) {
  fchain::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  double level = 50.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 3) level += 25.0;
    if (i == (2 * n) / 3) level += 40.0;
    level += rng.gaussian(0.0, 0.4);
    xs.push_back(level + rng.gaussian(0.0, 2.0));
  }
  return xs;
}

bool samePoints(const std::vector<ChangePoint>& a,
                const std::vector<ChangePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].confidence != b[i].confidence ||
        a[i].shift != b[i].shift) {
      return false;
    }
  }
  return true;
}

TEST(EngineIdentity, ForcedBootstrapSegmentationMatchesReferenceBitExact) {
  // At confidence 0 every bootstrap accepts, in either engine, so the
  // segmentation is decided by the CUSUM range and peak alone. Indices and
  // shifts must then be bit-equal; confidences come from different
  // permutation draws and are not compared.
  CusumConfig config;
  config.confidence = 0.0;
  std::size_t compared = 0;
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 5ULL, 99ULL}) {
    for (std::size_t n : {20u, 41u, 101u, 150u, 500u, 1000u}) {
      const auto xs = faultyStream(seed, n);
      const auto expected = reference::detectChangePoints(xs, config);
      const auto actual = detectChangePoints(xs, config);
      ASSERT_EQ(expected.size(), actual.size())
          << "seed=" << seed << " n=" << n;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].index, actual[i].index)
            << "seed=" << seed << " n=" << n << " i=" << i;
        EXPECT_EQ(expected[i].shift, actual[i].shift)
            << "seed=" << seed << " n=" << n << " i=" << i;
      }
      compared += expected.size();
    }
  }
  // Forced acceptance must actually drive deep segmentations.
  EXPECT_GE(compared, 500u);
}

TEST(EngineIdentity, PlannedFftMatchesReferenceBitExact) {
  // Both directions, every power of two from 1 to 4096: the plan's twiddle
  // tables must reproduce the reference recurrence's rounding exactly.
  fchain::Rng rng(0xff7);
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    const FftPlan plan = FftPlan::make(n);
    std::vector<std::complex<double>> data(n);
    for (auto& x : data) {
      x = {rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)};
    }
    for (const bool inverse : {false, true}) {
      std::vector<std::complex<double>> expected = data;
      std::vector<std::complex<double>> actual = data;
      if (inverse) {
        reference::unplannedIfft(expected);
        ifftInPlace(actual, plan);
      } else {
        reference::unplannedFft(expected);
        fftInPlace(actual, plan);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expected[i].real(), actual[i].real())
            << "n=" << n << " inverse=" << inverse << " i=" << i;
        ASSERT_EQ(expected[i].imag(), actual[i].imag())
            << "n=" << n << " inverse=" << inverse << " i=" << i;
      }
    }
  }
}

TEST(EngineIdentity, StatelessKernelsMatchReferenceBitExact) {
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    const auto xs = faultyStream(seed, 200);
    for (std::size_t half : {0u, 1u, 2u, 3u}) {
      const auto ref = reference::movingAverage(xs, half);
      const auto opt = movingAverage(xs, half);
      ASSERT_EQ(ref.size(), opt.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], opt[i]) << "half=" << half << " i=" << i;
      }
    }

    // Planned FFT path vs the reference's unplanned transform.
    const auto window = std::span<const double>(xs).subspan(0, 41);
    const auto ref_burst = reference::burstSignal(window);
    const auto opt_burst = burstSignal(window);
    ASSERT_EQ(ref_burst.size(), opt_burst.size());
    for (std::size_t i = 0; i < ref_burst.size(); ++i) {
      ASSERT_EQ(ref_burst[i], opt_burst[i]) << "i=" << i;
    }
    EXPECT_EQ(reference::expectedPredictionError(window),
              expectedPredictionError(window));

    const auto points = reference::detectChangePoints(xs);
    EXPECT_TRUE(samePoints(reference::outlierChangePoints(points),
                           outlierChangePoints(points)));
    for (std::size_t selected = 0; selected < points.size(); ++selected) {
      EXPECT_EQ(reference::rollbackOnset(xs, points, selected),
                rollbackOnset(xs, points, selected));
    }
  }
}

TEST(EngineIdentity, PooledModeIsDeterministicAcrossArenasAndReuse) {
  const CusumConfig config;
  // n = 500 exercises both pool paths: the top segments exceed
  // PermutationPool::kMaxPooledLength (regenerated into the overflow
  // buffer), deep recursion segments are cached.
  const auto xs = faultyStream(11, 500);

  SignalScratch fresh_a;
  std::vector<ChangePoint> out_a;
  detectChangePointsInto(xs, config, fresh_a, out_a);

  // Same arena again: warm pool, warm lanes.
  std::vector<ChangePoint> out_b;
  detectChangePointsInto(xs, config, fresh_a, out_b);
  EXPECT_TRUE(samePoints(out_a, out_b));

  // A different arena (cold pool), and the thread-local entry point.
  SignalScratch fresh_c;
  std::vector<ChangePoint> out_c;
  detectChangePointsInto(xs, config, fresh_c, out_c);
  EXPECT_TRUE(samePoints(out_a, out_c));
  EXPECT_TRUE(samePoints(out_a, detectChangePoints(xs, config)));
}

TEST(EngineIdentity, PooledEarlyExitMatchesFullRoundOracle) {
  // The early exit must be invisible: same accept/reject decision as
  // running every bootstrap round, and the exact full-round confidence on
  // accepted segments. Oracle: recompute the top-level segment's decision
  // from the same permutation pool with no early exit.
  CusumConfig config;
  config.max_change_points = 1;  // stop after the top-level decision
  SignalScratch scratch;
  std::size_t accepts = 0, rejects = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // Mix faulty and fault-free streams so both decisions occur.
    std::vector<double> xs;
    if (seed % 2 == 0) {
      fchain::Rng rng(seed);
      for (std::size_t i = 0; i < 60; ++i) {
        xs.push_back(rng.gaussian(10.0, 3.0));
      }
    } else {
      xs = faultyStream(seed, 60);
    }

    // Full-round oracle over the whole series as one segment.
    const double m = fchain::mean(xs);
    double s = 0.0, lo = 0.0, hi = 0.0, best_abs = 0.0;
    std::size_t peak = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      s += xs[i] - m;
      lo = std::min(lo, s);
      hi = std::max(hi, s);
      if (std::fabs(s) > best_abs) {
        best_abs = std::fabs(s);
        peak = i;
      }
    }
    const double observed = hi - lo;
    const auto perms =
        scratch.permutations(config.seed, config.bootstrap_rounds, xs.size());
    std::size_t below = 0;
    for (std::size_t r = 0; r < config.bootstrap_rounds; ++r) {
      const std::uint32_t* perm = perms.data() + r * xs.size();
      double ps = 0.0, plo = 0.0, phi = 0.0;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        ps += xs[perm[i]] - m;
        plo = std::min(plo, ps);
        phi = std::max(phi, ps);
      }
      if (phi - plo < observed) ++below;
    }
    const double full_confidence =
        static_cast<double>(below) /
        static_cast<double>(config.bootstrap_rounds);
    const std::size_t split = peak + 1;
    const bool split_legal = split >= config.min_segment &&
                             xs.size() - split >= config.min_segment;

    std::vector<ChangePoint> out;
    detectChangePointsInto(xs, config, scratch, out);
    if (full_confidence >= config.confidence && split_legal &&
        observed > 0.0) {
      ++accepts;
      ASSERT_EQ(out.size(), 1u) << "seed=" << seed;
      EXPECT_EQ(out[0].index, split);
      EXPECT_EQ(out[0].confidence, full_confidence) << "seed=" << seed;
    } else {
      ++rejects;
      EXPECT_TRUE(out.empty()) << "seed=" << seed;
    }
  }
  // The sweep must actually exercise both outcomes to prove anything.
  EXPECT_GE(accepts, 5u);
  EXPECT_GE(rejects, 5u);
}

TEST(EngineIdentity, SteadyStateKernelChainAllocatesNothing) {
  const auto xs = faultyStream(21, 300);
  SignalScratch scratch;

  const auto run_chain = [&] {
    std::vector<double>& smoothed =
        movingAverageInto(xs, 2, scratch.smoothed(xs.size()));
    std::vector<ChangePoint>& points = detectChangePointsInto(
        smoothed, CusumConfig{}, scratch, scratch.points());
    std::vector<ChangePoint>& outliers = outlierChangePointsInto(
        points, OutlierConfig{}, scratch, scratch.outliers());
    double acc = static_cast<double>(outliers.size());
    acc += expectedPredictionError(
        std::span<const double>(xs).subspan(0, 41), BurstConfig{}, scratch);
    if (!points.empty()) {
      acc += static_cast<double>(
          rollbackOnset(smoothed, points, points.size() - 1, RollbackConfig{},
                        scratch));
    }
    return acc;
  };

  const double warm = run_chain();  // sizes every lane, fills pool + plan
  scratch.accountGrowth();
  const std::uint64_t grow_before = scratch.stats().grow_events;

  // gtest assertions may themselves allocate, so collect inside the counted
  // window and assert outside it.
  std::array<double, 5> repeats{};
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (double& r : repeats) r = run_chain();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  for (double r : repeats) {
    EXPECT_EQ(r, warm);  // reuse must not change results either
  }

  EXPECT_EQ(after - before, 0u) << "steady-state kernel chain allocated";
  scratch.accountGrowth();
  EXPECT_EQ(scratch.stats().grow_events, grow_before);
}

// --- Slave-level identity: all six metric kinds, serial vs parallel -------

/// Builds a slave with four VMs whose six metric streams are random walks
/// with per-metric level shifts on two of the VMs.
core::FChainSlave buildSlave() {
  core::FChainSlave slave(0);
  for (ComponentId id = 0; id < 4; ++id) slave.addComponent(id, 0);
  fchain::Rng rng(2024);
  std::array<double, kMetricCount> level{};
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    level[m] = 40.0 + 10.0 * static_cast<double>(m);
  }
  for (TimeSec t = 0; t < 1400; ++t) {
    for (ComponentId id = 0; id < 4; ++id) {
      std::array<double, kMetricCount> sample{};
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        double v = level[m] + rng.gaussian(0.0, 2.0);
        // Fault signature: VM 1 ramps metric m after t=1200, VM 3 steps.
        if (id == 1 && t > 1200) {
          v += 0.15 * static_cast<double>(t - 1200);
        }
        if (id == 3 && t > 1250) v += 30.0;
        sample[m] = v;
      }
      slave.ingest(id, sample);
    }
  }
  return slave;
}

bool sameFinding(const core::ComponentFinding& a,
                 const core::ComponentFinding& b) {
  if (a.component != b.component || a.onset != b.onset ||
      a.trend != b.trend || a.metrics.size() != b.metrics.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    const core::MetricFinding& ma = a.metrics[i];
    const core::MetricFinding& mb = b.metrics[i];
    if (ma.metric != mb.metric || ma.onset != mb.onset ||
        ma.change_point != mb.change_point || ma.trend != mb.trend ||
        ma.prediction_error != mb.prediction_error ||
        ma.expected_error != mb.expected_error) {
      return false;
    }
  }
  return true;
}

TEST(EngineIdentity, ParallelAnalysisMatchesSerialAcrossAllMetrics) {
  core::FChainSlave slave = buildSlave();
  const std::vector<ComponentId> ids{0, 1, 2, 3};
  const TimeSec tv = 1399;

  const auto serial = slave.analyzeBatch(ids, tv);
  // Every VM analysis covers all six metric kinds (analyzeComponent sweeps
  // kAllMetrics), and at least one fault signature must have been found for
  // the comparison to be meaningful.
  ASSERT_TRUE(serial[1].has_value() || serial[3].has_value());

  slave.setAnalysisThreads(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    // Repeats reuse each worker thread's scratch arena — results must not
    // depend on which worker (with whatever warm lane sizes) gets which VM.
    const auto parallel = slave.analyzeBatch(ids, tv);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].has_value(), parallel[i].has_value()) << i;
      if (serial[i].has_value()) {
        EXPECT_TRUE(sameFinding(*serial[i], *parallel[i])) << i;
      }
    }
  }
  slave.setAnalysisThreads(0);
  const auto serial_again = slave.analyzeBatch(ids, tv);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].has_value(), serial_again[i].has_value()) << i;
    if (serial[i].has_value()) {
      EXPECT_TRUE(sameFinding(*serial[i], *serial_again[i])) << i;
    }
  }
}

TEST(EngineIdentity, ColdStartBurstThresholdIsInfiniteNotZero) {
  BurstConfig config;
  SignalScratch scratch;
  const std::vector<double> short_window{1.0, 5.0, 2.0};
  EXPECT_EQ(expectedPredictionError(short_window, config, scratch),
            std::numeric_limits<double>::infinity());
  // Reference engine documents the old defect for contrast.
  EXPECT_EQ(reference::expectedPredictionError(std::vector<double>{}), 0.0);
}

}  // namespace
}  // namespace fchain::signal
