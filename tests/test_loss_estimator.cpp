// Channel-loss estimator unit tests on synthetic loss patterns: the
// estimator must report p for uniform losses (case 1) and filter out
// bursty collision losses to recover the channel-only rate (case 2).

#include "estimation/loss_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace meshopt {
namespace {

std::vector<std::uint8_t> uniform_losses(int s, double p, std::uint64_t seed) {
  RngStream rng(seed, "uniform");
  std::vector<std::uint8_t> v(static_cast<std::size_t>(s), 0);
  for (auto& b : v) b = rng.bernoulli(p) ? 1 : 0;
  return v;
}

/// Uniform channel losses plus bursts of collision losses.
std::vector<std::uint8_t> bursty_losses(int s, double p_ch, int bursts,
                                        int burst_len, std::uint64_t seed) {
  auto v = uniform_losses(s, p_ch, seed);
  RngStream rng(seed, "bursts");
  for (int b = 0; b < bursts; ++b) {
    const int start = rng.uniform_int(0, s - burst_len - 1);
    for (int i = 0; i < burst_len; ++i) v[std::size_t(start + i)] = 1;
  }
  return v;
}

TEST(LossEstimator, EmptyPattern) {
  const auto est = estimate_channel_loss({});
  EXPECT_EQ(est.p, 0.0);
  EXPECT_EQ(est.p_ch, 0.0);
}

TEST(LossEstimator, NoLosses) {
  std::vector<std::uint8_t> v(500, 0);
  const auto est = estimate_channel_loss(v);
  EXPECT_EQ(est.p, 0.0);
  EXPECT_EQ(est.p_ch, 0.0);
  EXPECT_TRUE(est.median_case);
}

TEST(LossEstimator, AllLost) {
  std::vector<std::uint8_t> v(500, 1);
  const auto est = estimate_channel_loss(v);
  EXPECT_EQ(est.p, 1.0);
  EXPECT_NEAR(est.p_ch, 1.0, 1e-12);
}

TEST(LossEstimator, UniformLossesTriggerMedianCase) {
  const auto v = uniform_losses(1280, 0.2, 42);
  const auto est = estimate_channel_loss(v);
  EXPECT_TRUE(est.median_case);
  EXPECT_NEAR(est.p_ch, est.p, 1e-12);
  EXPECT_NEAR(est.p_ch, 0.2, 0.05);
}

TEST(LossEstimator, BurstyCollisionsFiltered) {
  // 5% channel losses plus heavy bursts pushing measured p much higher.
  const auto v = bursty_losses(1280, 0.05, 12, 40, 7);
  const auto est = estimate_channel_loss(v);
  EXPECT_GT(est.p, 0.30);  // bursts inflate the measured rate
  EXPECT_FALSE(est.median_case);
  EXPECT_NEAR(est.p_ch, 0.05, 0.04);
}

TEST(LossEstimator, PwEndsAtPAndStaysInRange) {
  const auto v = bursty_losses(640, 0.1, 6, 30, 3);
  const auto est = estimate_channel_loss(v);
  ASSERT_FALSE(est.p_w.empty());
  // p^(S) equals the measured p by construction (single full window).
  EXPECT_NEAR(est.p_w.back(), est.p, 1e-12);
  for (double pw : est.p_w) {
    EXPECT_GE(pw, 0.0);
    EXPECT_LE(pw, 1.0);
  }
  // The smallest window estimate lower-bounds p (it can always slide to
  // the cleanest segment).
  EXPECT_LE(est.p_w.front(), est.p + 1e-12);
}

TEST(LossEstimator, WStarWithinRange) {
  const auto v = bursty_losses(800, 0.08, 8, 25, 11);
  const auto est = estimate_channel_loss(v, 10);
  EXPECT_GE(est.w_star, 10);
  EXPECT_LE(est.w_star, 800);
}

// Property sweep: across channel rates and burst intensities, the estimate
// must stay close to the planted channel rate (this is Fig. 10's claim:
// RMSE ~0.05 over many links).
class EstimatorGrid
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(EstimatorGrid, RecoversPlantedChannelRate) {
  const auto [p_ch, bursts] = GetParam();
  double err_acc = 0.0;
  const int runs = 8;
  for (int r = 0; r < runs; ++r) {
    const auto v =
        bursty_losses(1280, p_ch, bursts, 35, 100 + static_cast<std::uint64_t>(r));
    const auto est = estimate_channel_loss(v);
    err_acc += (est.p_ch - p_ch) * (est.p_ch - p_ch);
  }
  const double rmse = std::sqrt(err_acc / runs);
  EXPECT_LT(rmse, 0.08) << "p_ch=" << p_ch << " bursts=" << bursts;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EstimatorGrid,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.1, 0.2, 0.3),
                       ::testing::Values(0, 5, 12)));

TEST(LossEstimator, CombineDataAckLoss) {
  EXPECT_DOUBLE_EQ(combine_data_ack_loss(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(combine_data_ack_loss(1.0, 0.0), 1.0);
  EXPECT_NEAR(combine_data_ack_loss(0.1, 0.2), 1.0 - 0.9 * 0.8, 1e-12);
  // Clamping.
  EXPECT_DOUBLE_EQ(combine_data_ack_loss(-0.5, 2.0), 1.0);
}

TEST(LossEstimator, ShortWindowStillSane) {
  // S = 200 (the controller's operating point).
  const auto v = bursty_losses(200, 0.1, 3, 20, 21);
  const auto est = estimate_channel_loss(v);
  EXPECT_GE(est.p_ch, 0.0);
  EXPECT_LE(est.p_ch, est.p + 1e-12);
  EXPECT_NEAR(est.p_ch, 0.1, 0.09);
}

// ---- differential test: step-table evaluation vs. the Monte-Carlo oracle

// The Monte-Carlo bias-correction model the estimator used before it moved
// to a per-(window, S) step table, verbatim. min_statistic_corrected_rate
// must reproduce it bit for bit.
double oracle_expected_min_window_count(double q, int w, int s) {
  constexpr int kReplicas = 5;
  std::vector<double> mins;
  mins.reserve(kReplicas);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^
                        (static_cast<std::uint64_t>(w) << 32) ^
                        static_cast<std::uint64_t>(s);
  const auto next_u01 = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (int r = 0; r < kReplicas; ++r) {
    int in_window = 0;
    int best = w + 1;
    std::vector<std::uint8_t> ring(static_cast<std::size_t>(w), 0);
    for (int i = 0; i < s; ++i) {
      const std::uint8_t loss = next_u01() < q ? 1 : 0;
      const std::size_t slot = static_cast<std::size_t>(i % w);
      if (i >= w) in_window -= ring[slot];
      ring[slot] = loss;
      in_window += loss;
      if (i >= w - 1) best = std::min(best, in_window);
    }
    mins.push_back(static_cast<double>(best));
  }
  std::nth_element(mins.begin(), mins.begin() + kReplicas / 2, mins.end());
  return mins[kReplicas / 2];
}

double oracle_min_statistic_corrected_rate(double raw_rate, int window,
                                           int n_windows) {
  if (n_windows <= 1 || window <= 0) return raw_rate;
  const int s = n_windows + window - 1;
  const double k_min = raw_rate * static_cast<double>(window);
  double lo = std::clamp(raw_rate, 0.0, 1.0);
  double hi = 1.0;
  if (oracle_expected_min_window_count(hi, window, s) <= k_min) return hi;
  if (oracle_expected_min_window_count(lo, window, s) > k_min) return lo;
  for (int it = 0; it < 22; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (oracle_expected_min_window_count(mid, window, s) <= k_min) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

struct CorrectionCase {
  double raw_rate = 0.0;
  int window = 0;
  int n_windows = 0;
  double expected = 0.0;  ///< the oracle's answer
};

/// Every window 1..S and every integer loss count k (raw rate k/window)
/// for S in {20, 30, 50, 200}; 10^4 random raw rates over random windows
/// of those S; and a few out-of-range and non-finite raw rates. Built (and
/// run through the oracle) once per process.
const std::vector<CorrectionCase>& correction_cases() {
  static const std::vector<CorrectionCase> cases = [] {
    constexpr int kS[] = {20, 30, 50, 200};
    std::vector<CorrectionCase> out;
    for (int s : kS) {
      for (int w = 1; w <= s; ++w) {
        for (int k = 0; k <= w; ++k) {
          out.push_back({static_cast<double>(k) / static_cast<double>(w), w,
                         s - w + 1});
        }
      }
    }
    RngStream rng(2024, "corrected-rate");
    for (int i = 0; i < 10000; ++i) {
      const int s = kS[rng.uniform_int(0, 3)];
      const int w = rng.uniform_int(1, s);
      out.push_back({rng.uniform(0.0, 1.0), w, s - w + 1});
    }
    for (double raw : {-0.25, 1.5, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
      for (int w : {1, 7, 29}) out.push_back({raw, w, 30 - w + 1});
    }
    for (CorrectionCase& c : out) {
      c.expected =
          oracle_min_statistic_corrected_rate(c.raw_rate, c.window, c.n_windows);
    }
    return out;
  }();
  return cases;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CorrectedRateDifferential, MatchesMonteCarloOracleBitForBit) {
  const auto& cases = correction_cases();
  ASSERT_GT(cases.size(), 30000u);
  int mismatches = 0;
  for (const CorrectionCase& c : cases) {
    const double got =
        min_statistic_corrected_rate(c.raw_rate, c.window, c.n_windows);
    if (!same_bits(got, c.expected)) {
      ADD_FAILURE() << "raw_rate=" << c.raw_rate << " window=" << c.window
                    << " n_windows=" << c.n_windows << ": got " << got
                    << ", oracle " << c.expected;
      if (++mismatches >= 10) return;
    }
  }
}

TEST(CorrectedRateDifferential, MatchesOracleFromFourThreads) {
  const auto& cases = correction_cases();
  // Each thread walks every case from its own starting offset, so the
  // per-thread tables fill their cuts in different orders.
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cases, &mismatches, t] {
      const std::size_t n = cases.size();
      const std::size_t start = n * static_cast<std::size_t>(t) / kThreads;
      for (std::size_t i = 0; i < n; ++i) {
        const CorrectionCase& c = cases[(start + i) % n];
        const double got =
            min_statistic_corrected_rate(c.raw_rate, c.window, c.n_windows);
        if (!same_bits(got, c.expected)) ++mismatches[std::size_t(t)];
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[std::size_t(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace meshopt
