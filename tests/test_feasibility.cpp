#include "model/feasibility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "model/two_link_analysis.h"
#include "util/rng.h"

namespace meshopt {
namespace {

FeasibilityRegion two_link_time_sharing() {
  // Primary points only: (1,0) and (0,2) — a time sharing region.
  return FeasibilityRegion{{{1.0, 0.0}, {0.0, 2.0}}};
}

TEST(Feasibility, ExtremePointsAreMembers) {
  const auto r = two_link_time_sharing();
  EXPECT_TRUE(r.contains({1.0, 0.0}));
  EXPECT_TRUE(r.contains({0.0, 2.0}));
}

TEST(Feasibility, ConvexCombinationsAreMembers) {
  const auto r = two_link_time_sharing();
  EXPECT_TRUE(r.contains({0.5, 1.0}));   // midpoint
  EXPECT_TRUE(r.contains({0.25, 1.5}));  // 1/4 : 3/4
}

TEST(Feasibility, DominatedPointsAreMembers) {
  const auto r = two_link_time_sharing();
  EXPECT_TRUE(r.contains({0.2, 0.2}));
  EXPECT_TRUE(r.contains({0.0, 0.0}));
}

TEST(Feasibility, BeyondHullRejected) {
  const auto r = two_link_time_sharing();
  EXPECT_FALSE(r.contains({0.6, 1.0}));  // above the time-sharing line
  EXPECT_FALSE(r.contains({1.01, 0.0}));
  EXPECT_FALSE(r.contains({0.0, 2.5}));
}

TEST(Feasibility, MaxScalingOnBoundaryIsOne) {
  const auto r = two_link_time_sharing();
  EXPECT_NEAR(r.max_scaling({0.5, 1.0}), 1.0, 1e-6);
  EXPECT_NEAR(r.max_scaling({0.25, 0.5}), 2.0, 1e-6);
  EXPECT_NEAR(r.max_scaling({1.0, 2.0}), 0.5, 1e-6);
}

TEST(Feasibility, ZeroLoadScalesInfinitely) {
  const auto r = two_link_time_sharing();
  EXPECT_TRUE(std::isinf(r.max_scaling({0.0, 0.0})));
}

TEST(Feasibility, IndependentRegionContainsCorner) {
  // Adding the (1,2) secondary point turns the region rectangular.
  FeasibilityRegion r{{{1.0, 0.0}, {0.0, 2.0}, {1.0, 2.0}}};
  EXPECT_TRUE(r.contains({1.0, 2.0}));
  EXPECT_TRUE(r.contains({0.9, 1.9}));
  EXPECT_FALSE(r.contains({1.1, 0.0}));
}

TEST(ExtremePoints, Eq4MapsIndependentSetsToCapacities) {
  // Path conflict graph 0-1-2 over three links with capacities 1,2,3.
  ConflictGraph g(3);
  g.add_conflict(0, 1);
  g.add_conflict(1, 2);
  auto points = build_extreme_point_matrix({1.0, 2.0, 3.0}, g).to_nested();
  // Maximal independent sets: {0,2} and {1}, in either row order.
  ASSERT_EQ(points.size(), 2u);
  std::sort(points.begin(), points.end());
  EXPECT_EQ(points[0], (std::vector<double>{0.0, 2.0, 0.0}));
  EXPECT_EQ(points[1], (std::vector<double>{1.0, 0.0, 3.0}));
}

TEST(ExtremePoints, NoConflictsYieldsFullVector) {
  ConflictGraph g(3);
  const auto points =
      build_extreme_point_matrix({5.0, 6.0, 7.0}, g).to_nested();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], (std::vector<double>{5.0, 6.0, 7.0}));
}

TEST(ExtremePoints, RegionFromCliqueIsTimeSharing) {
  // Complete conflict graph: secondary points are the primaries, and the
  // region is exactly time sharing: sum of normalized rates <= 1.
  ConflictGraph g(3);
  for (int i = 0; i < 3; ++i)
    for (int j = i + 1; j < 3; ++j) g.add_conflict(i, j);
  const std::vector<double> caps{1.0, 2.0, 4.0};
  FeasibilityRegion r{build_extreme_point_matrix(caps, g)};
  EXPECT_TRUE(r.contains({0.5, 0.5, 1.0}));   // 0.5+0.25+0.25 = 1
  EXPECT_FALSE(r.contains({0.5, 0.5, 1.3}));  // > 1
}

TEST(ExtremePoints, MatrixBridgeMatchesNestedPathAsSets) {
  // The DenseMatrix bridge emits rows in enumeration order; the
  // canonical maximal_independent_sets() list is sorted. Eq. 4 over that
  // list gives the same rows, possibly permuted.
  RngStream rng(11, "bridge");
  ConflictGraph g(10);
  for (int i = 0; i < 10; ++i)
    for (int j = i + 1; j < 10; ++j)
      if (rng.bernoulli(0.4)) g.add_conflict(i, j);
  std::vector<double> caps;
  for (int i = 0; i < 10; ++i) caps.push_back(rng.uniform(0.5, 5.0));

  const DenseMatrix m = build_extreme_point_matrix(caps, g);
  std::vector<std::vector<double>> nested;
  for (const auto& mis : g.maximal_independent_sets()) {
    std::vector<double> row(caps.size(), 0.0);
    for (const int link : mis) {
      const auto l = static_cast<std::size_t>(link);
      row[l] = caps[l];
    }
    nested.push_back(std::move(row));
  }
  ASSERT_EQ(m.rows(), static_cast<int>(nested.size()));
  ASSERT_EQ(m.cols(), 10);
  auto from_matrix = m.to_nested();
  std::sort(from_matrix.begin(), from_matrix.end());
  std::sort(nested.begin(), nested.end());
  EXPECT_EQ(from_matrix, nested);
}

TEST(ExtremePoints, MatrixBridgeRespectsCap) {
  ConflictGraph g(8);  // no conflicts: exactly one MIS
  const DenseMatrix all = build_extreme_point_matrix(
      std::vector<double>(8, 1.0), g);
  EXPECT_EQ(all.rows(), 1);
  // 4 disjoint conflicting pairs: 2^4 = 16 maximal independent sets.
  ConflictGraph pairs(8);
  for (int i = 0; i < 8; i += 2) pairs.add_conflict(i, i + 1);
  const DenseMatrix capped = build_extreme_point_matrix(
      std::vector<double>(8, 1.0), pairs, /*cap=*/5);
  EXPECT_EQ(capped.rows(), 5);
}

TEST(ExtremePoints, MatrixBridgeCapacitySizeMismatchThrows) {
  ConflictGraph g(3);
  EXPECT_THROW(build_extreme_point_matrix({1.0, 2.0}, g),
               std::invalid_argument);
}

// Property: scaling any member by max_scaling lands on the boundary.
class ScalingProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScalingProperty, ScaledLoadIsBoundary) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()), "feas");
  const int links = rng.uniform_int(2, 5);
  const int pts = rng.uniform_int(2, 6);
  DenseMatrix extreme(pts, links);
  for (int p = 0; p < pts; ++p)
    for (int l = 0; l < links; ++l) extreme(p, l) = rng.uniform(0.0, 10.0);
  FeasibilityRegion r{extreme};

  std::vector<double> load(static_cast<std::size_t>(links));
  for (auto& v : load) v = rng.uniform(0.1, 5.0);
  const double lambda = r.max_scaling(load);
  ASSERT_GT(lambda, 0.0);
  ASSERT_TRUE(std::isfinite(lambda));
  std::vector<double> scaled = load;
  for (auto& v : scaled) v *= lambda;
  EXPECT_TRUE(r.contains(scaled, 1e-5));
  for (auto& v : scaled) v *= 1.02;
  EXPECT_FALSE(r.contains(scaled, 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalingProperty, ::testing::Range(1, 16));

TEST(TwoLinkAnalysis, TimeSharingPointHasNoExtraArea) {
  // Secondary point exactly on the time-sharing line: A2 = 0.
  TwoLinkGeometry g{1.0, 1.0, 0.5, 0.5};
  EXPECT_NEAR(g.a1(), 0.5, 1e-12);
  EXPECT_NEAR(g.a2(), 0.0, 1e-12);
  EXPECT_NEAR(g.fn_error_if_interfering(), 0.0, 1e-12);
}

TEST(TwoLinkAnalysis, IndependentCornerMaximizesA2) {
  TwoLinkGeometry g{1.0, 1.0, 1.0, 1.0};
  EXPECT_NEAR(g.a1() + g.a2(), 1.0, 1e-12);  // full rectangle
  EXPECT_NEAR(g.fp_error_if_independent(), 0.0, 1e-12);
  EXPECT_NEAR(g.fn_error_if_interfering(), 0.5, 1e-12);
}

TEST(TwoLinkAnalysis, Figure5StyleCase) {
  // LIR ~0.7 with symmetric realization: substantial FN if classified
  // interfering, matching the paper's extreme-example discussion.
  const TwoLinkGeometry g = proportional_realization(1.0, 1.0, 0.7);
  EXPECT_LT(g.lir(), 0.95);
  const double fn = g.fn_error(0.95);
  EXPECT_GT(fn, 0.2);
  EXPECT_LT(fn, 0.5);
  EXPECT_EQ(g.fp_error(0.95), 0.0);
}

TEST(TwoLinkAnalysis, HighLirClassifiedIndependentHasSmallFp) {
  const TwoLinkGeometry g = proportional_realization(1.0, 1.0, 0.97);
  EXPECT_GT(g.lir(), 0.95);
  EXPECT_EQ(g.fn_error(0.95), 0.0);
  const double fp = g.fp_error(0.95);
  EXPECT_GT(fp, 0.0);
  EXPECT_LT(fp, 0.05);
}

TEST(TwoLinkAnalysis, ExpectedErrorsOverBimodalDistribution) {
  // Bimodal LIR population like the paper's Fig. 3: FP stays tiny, FN
  // moderate at threshold 0.95.
  std::vector<double> lirs;
  for (int i = 0; i < 60; ++i) lirs.push_back(0.5 + 0.003 * i);   // low mode
  for (int i = 0; i < 40; ++i) lirs.push_back(0.96 + 0.001 * i);  // high mode
  const ExpectedErrors e = expected_errors(lirs, 0.95);
  EXPECT_LT(e.fp, 0.05);
  EXPECT_GT(e.fn, 0.05);
  EXPECT_LT(e.fn, 0.35);
}

TEST(TwoLinkAnalysis, ThresholdTradeoffMonotonicity) {
  std::vector<double> lirs;
  for (int i = 0; i <= 100; ++i) lirs.push_back(0.4 + 0.006 * i);
  const ExpectedErrors lo = expected_errors(lirs, 0.7);
  const ExpectedErrors hi = expected_errors(lirs, 0.99);
  // Raising the threshold converts FPs into FNs.
  EXPECT_GT(lo.fp, hi.fp);
  EXPECT_LT(lo.fn, hi.fn);
}

}  // namespace
}  // namespace meshopt
