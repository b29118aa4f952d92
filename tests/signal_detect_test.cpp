// Unit & property tests for signal/: CUSUM+bootstrap change point detection,
// change-magnitude outlier filtering, smoothing, and tangent rollback.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "signal/cusum.h"
#include "signal/outlier.h"
#include "signal/smoothing.h"
#include "signal/tangent.h"

namespace fchain::signal {
namespace {

std::vector<double> noisySeries(std::size_t n, double mean, double sigma,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.gaussian(mean, sigma);
  return xs;
}

// ---------------------------------------------------------------- cusum ---

TEST(Cusum, NoChangePointsOnStationaryNoise) {
  const auto xs = noisySeries(200, 50.0, 1.0, 3);
  const auto points = detectChangePoints(xs);
  // Bootstrap at 95 % confidence may rarely fire on pure noise, but must
  // not fire repeatedly.
  EXPECT_LE(points.size(), 1u);
}

struct StepCase {
  std::size_t position;
  double magnitude;
};

class CusumStep : public ::testing::TestWithParam<StepCase> {};

TEST_P(CusumStep, DetectsSingleStepNearTruePosition) {
  const auto [position, magnitude] = GetParam();
  auto xs = noisySeries(200, 50.0, 1.0, position);
  for (std::size_t i = position; i < xs.size(); ++i) xs[i] += magnitude;
  const auto points = detectChangePoints(xs);
  ASSERT_FALSE(points.empty());
  // The closest detected point must land near the true step.
  std::size_t best = points[0].index;
  for (const auto& point : points) {
    if (std::llabs(static_cast<long long>(point.index) -
                   static_cast<long long>(position)) <
        std::llabs(static_cast<long long>(best) -
                   static_cast<long long>(position))) {
      best = point.index;
    }
  }
  EXPECT_NEAR(static_cast<double>(best), static_cast<double>(position), 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    Steps, CusumStep,
    ::testing::Values(StepCase{50, 5.0}, StepCase{100, 5.0},
                      StepCase{150, 5.0}, StepCase{100, -8.0},
                      StepCase{100, 3.0}, StepCase{70, 20.0}));

TEST(Cusum, ShiftSignMatchesStepDirection) {
  auto up = noisySeries(120, 10.0, 0.5, 21);
  for (std::size_t i = 60; i < up.size(); ++i) up[i] += 6.0;
  const auto up_points = detectChangePoints(up);
  ASSERT_FALSE(up_points.empty());
  EXPECT_GT(up_points.front().shift, 0.0);

  auto down = noisySeries(120, 10.0, 0.5, 22);
  for (std::size_t i = 60; i < down.size(); ++i) down[i] -= 6.0;
  const auto down_points = detectChangePoints(down);
  ASSERT_FALSE(down_points.empty());
  EXPECT_LT(down_points.front().shift, 0.0);
}

TEST(Cusum, DetectsTwoSteps) {
  auto xs = noisySeries(300, 0.0, 0.5, 33);
  for (std::size_t i = 100; i < xs.size(); ++i) xs[i] += 5.0;
  for (std::size_t i = 200; i < xs.size(); ++i) xs[i] += 5.0;
  const auto points = detectChangePoints(xs);
  ASSERT_GE(points.size(), 2u);
  bool near_100 = false, near_200 = false;
  for (const auto& point : points) {
    near_100 = near_100 || (point.index > 90 && point.index < 110);
    near_200 = near_200 || (point.index > 190 && point.index < 210);
  }
  EXPECT_TRUE(near_100);
  EXPECT_TRUE(near_200);
}

TEST(Cusum, DeterministicAcrossCalls) {
  auto xs = noisySeries(150, 5.0, 2.0, 44);
  for (std::size_t i = 70; i < xs.size(); ++i) xs[i] += 8.0;
  const auto a = detectChangePoints(xs);
  const auto b = detectChangePoints(xs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_DOUBLE_EQ(a[i].confidence, b[i].confidence);
  }
}

TEST(Cusum, RespectsMinSegment) {
  CusumConfig config;
  config.min_segment = 30;
  auto xs = noisySeries(100, 0.0, 0.2, 55);
  for (std::size_t i = 50; i < xs.size(); ++i) xs[i] += 10.0;
  for (const auto& point : detectChangePoints(xs, config)) {
    EXPECT_GE(point.index, config.min_segment);
    EXPECT_LE(point.index, xs.size() - config.min_segment);
  }
}

TEST(Cusum, TooShortSeriesYieldsNothing) {
  EXPECT_TRUE(detectChangePoints(std::vector<double>{1, 2, 3}).empty());
  EXPECT_TRUE(detectChangePoints({}).empty());
}

// -------------------------------------------------------------- outlier ---

TEST(Outlier, KeepsOnlyTheLargeShift) {
  std::vector<ChangePoint> points;
  for (std::size_t i = 0; i < 8; ++i) {
    points.push_back({10 * (i + 1), 0.99, 1.0 + 0.1 * static_cast<double>(i)});
  }
  points.push_back({95, 0.99, 40.0});  // the outlier
  const auto outliers = outlierChangePoints(points);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0].index, 95u);
}

TEST(Outlier, FewPointsPassThrough) {
  std::vector<ChangePoint> points{{5, 0.99, 1.0}, {9, 0.99, 100.0}};
  EXPECT_EQ(outlierChangePoints(points).size(), 2u);
}

TEST(Outlier, IdenticalShiftsDegenerateCase) {
  std::vector<ChangePoint> points(6, ChangePoint{10, 0.99, 2.0});
  // All identical: nothing is an outlier.
  EXPECT_TRUE(outlierChangePoints(points).empty());
  points.push_back({70, 0.99, 30.0});  // a clear multiple of the median
  EXPECT_EQ(outlierChangePoints(points).size(), 1u);
}

// ------------------------------------------------------------ smoothing ---

TEST(Smoothing, MovingAveragePreservesConstant) {
  const std::vector<double> xs(20, 7.0);
  for (double v : movingAverage(xs, 3)) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(Smoothing, MovingAverageReducesVariance) {
  Rng rng(66);
  std::vector<double> xs(300);
  for (double& x : xs) x = rng.gaussian(0.0, 1.0);
  const auto smooth = movingAverage(xs, 3);
  double raw_var = 0.0, smooth_var = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    raw_var += xs[i] * xs[i];
    smooth_var += smooth[i] * smooth[i];
  }
  EXPECT_LT(smooth_var, raw_var * 0.4);
}

TEST(Smoothing, ZeroHalfWindowIsIdentity) {
  const std::vector<double> xs{1, 5, 2, 8};
  const auto out = movingAverage(xs, 0);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_DOUBLE_EQ(out[i], xs[i]);
}

// -------------------------------------------------------------- tangent ---

TEST(Tangent, TangentAtRecoversLocalSlope) {
  std::vector<double> xs;
  for (int i = 0; i < 60; ++i) xs.push_back(2.0 * i);
  EXPECT_NEAR(tangentAt(xs, 30, 5), 2.0, 1e-9);
  EXPECT_NEAR(tangentAt(xs, 0, 5), 2.0, 1e-9);   // clamped window
  EXPECT_NEAR(tangentAt(xs, 59, 5), 2.0, 1e-9);  // clamped window
}

TEST(Tangent, RollbackWalksToOnsetOfGradualRamp) {
  // Flat until t=60, then a steady ramp; CUSUM-style points at 70, 80, 90.
  std::vector<double> xs(60, 10.0);
  for (int i = 0; i < 60; ++i) xs.push_back(10.0 + 3.0 * i);
  std::vector<ChangePoint> points{
      {40, 0.99, 0.1}, {62, 0.99, 20.0}, {75, 0.99, 30.0}, {90, 0.99, 45.0}};
  // Anchor on the last point; rollback should reach the ramp start (~62)
  // but NOT the pre-fault point at 40.
  const std::size_t onset = rollbackOnset(xs, points, 3);
  EXPECT_EQ(onset, 1u);
}

TEST(Tangent, RollbackStopsAtOppositeShiftSign) {
  std::vector<double> xs(120, 5.0);
  for (int i = 60; i < 120; ++i) xs[i] = 5.0 + 2.0 * (i - 60);
  std::vector<ChangePoint> points{
      {50, 0.99, -15.0}, {70, 0.99, 20.0}, {85, 0.99, 30.0}};
  const std::size_t onset = rollbackOnset(xs, points, 2);
  EXPECT_GE(onset, 1u);  // never crosses the negative-shift point at 50
}

TEST(Tangent, RollbackFromFirstPointIsIdentity) {
  std::vector<double> xs(50, 1.0);
  std::vector<ChangePoint> points{{25, 0.9, 1.0}};
  EXPECT_EQ(rollbackOnset(xs, points, 0), 0u);
  EXPECT_EQ(rollbackOnset(xs, {}, 0), 0u);
}

}  // namespace
}  // namespace fchain::signal
