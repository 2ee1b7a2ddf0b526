#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>

#include "simgen/rng.h"

namespace synscan::stats {
namespace {

TEST(StreamingMoments, EmptyDefaults) {
  StreamingMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.min(), 0.0);
  EXPECT_EQ(m.max(), 0.0);
}

TEST(StreamingMoments, SingleSample) {
  StreamingMoments m;
  m.add(42.0);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.mean(), 42.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.min(), 42.0);
  EXPECT_EQ(m.max(), 42.0);
}

TEST(StreamingMoments, KnownSample) {
  StreamingMoments m;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, 32/7.
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(m.min(), 2.0);
  EXPECT_EQ(m.max(), 9.0);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(StreamingMoments, NumericallyStableAtLargeOffset) {
  StreamingMoments m;
  for (int i = 0; i < 1000; ++i) m.add(1e9 + (i % 2));
  EXPECT_NEAR(m.variance(), 0.25025, 1e-3);
}

TEST(Quantile, MedianOfOddSample) {
  const double data[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(data), 3.0);
}

TEST(Quantile, MedianOfEvenSampleInterpolates) {
  const double data[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(data), 2.5);
}

TEST(Quantile, ExtremesAreMinAndMax) {
  const double data[] = {9.0, 2.0, 7.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 9.0);
}

TEST(Quantile, Type7Interpolation) {
  // numpy.quantile([10,20,30,40], 0.3) == 19.0
  const double data[] = {10.0, 20.0, 30.0, 40.0};
  EXPECT_NEAR(quantile(data, 0.3), 19.0, 1e-12);
}

TEST(Quantile, ThrowsOnEmptyOrBadQ) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  const double data[] = {1.0};
  EXPECT_THROW((void)quantile(data, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(data, 1.1), std::invalid_argument);
}

TEST(Quantile, InplaceMatchesCopying) {
  simgen::Rng rng(11);
  std::vector<double> data(101);
  for (auto& x : data) x = rng.uniform_real() * 100.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    auto copy = data;
    EXPECT_DOUBLE_EQ(quantile_inplace(copy, q), quantile(data, q)) << q;
  }
}

TEST(Mean, EmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Mean, SimpleAverage) {
  const double data[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(data), 2.5);
}

}  // namespace
}  // namespace synscan::stats
