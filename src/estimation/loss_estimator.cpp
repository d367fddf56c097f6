#include "estimation/loss_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>

#include "util/mathfit.h"

namespace meshopt {

namespace {

/// The bias-correction model: kReplicas replicas of a uniform Bernoulli(q)
/// process of length s, each drawn from a fixed xorshift stream seeded by
/// (w, s); the statistic is the median (across replicas) of the
/// sliding-window minimum loss count for window w.
///
/// For a fixed (w, s) the kReplicas*s draws never change, so the loss set
/// {u < q} — and with it the statistic — depends on q only through the cut
/// j = #{draws < q}. The statistic is therefore a non-decreasing step
/// function of q with a step only at draw values. The table sorts the
/// draws once and fills the statistic per cut lazily, so evaluating it is
/// a binary search plus (the first time a cut is seen) one pass over the
/// draws — the same loss sets and the same counts as simulating afresh.
class MinWindowStepTable {
 public:
  static constexpr int kReplicas = 5;

  MinWindowStepTable(int w, int s) : w_(w), s_(s) {
    const std::size_t n =
        static_cast<std::size_t>(kReplicas) * static_cast<std::size_t>(s);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL ^
                          (static_cast<std::uint64_t>(w) << 32) ^
                          static_cast<std::uint64_t>(s);
    std::vector<double> draws(n);
    for (double& u : draws) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      u = static_cast<double>(state >> 11) * 0x1.0p-53;
    }
    // Rank of each draw in ascending order. Tied draws are never split by
    // a cut (a cut counts the draws strictly below q), so their relative
    // order is immaterial.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0U);
    std::stable_sort(order.begin(), order.end(),
                     [&draws](std::uint32_t a, std::uint32_t b) {
                       return draws[a] < draws[b];
                     });
    sorted_.resize(n);
    rank_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      sorted_[r] = draws[order[r]];
      rank_[order[r]] = static_cast<std::uint32_t>(r);
    }
    value_.assign(n + 1, -1);
  }

  /// Median-of-replicas sliding-window minimum loss count at loss rate q.
  double at(double q) {
    const auto j = static_cast<std::size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), q) -
        sorted_.begin());
    if (value_[j] < 0) value_[j] = fill(static_cast<std::uint32_t>(j));
    return static_cast<double>(value_[j]);
  }

 private:
  /// The statistic when exactly the draws of rank < j are losses.
  int fill(std::uint32_t j) const {
    int mins[kReplicas];
    for (int r = 0; r < kReplicas; ++r) {
      const std::uint32_t* rank =
          rank_.data() + static_cast<std::size_t>(r) * std::size_t(s_);
      int in_window = 0;
      int best = w_ + 1;
      for (int i = 0; i < s_; ++i) {
        if (i >= w_) in_window -= rank[i - w_] < j ? 1 : 0;
        in_window += rank[i] < j ? 1 : 0;
        if (i >= w_ - 1) best = std::min(best, in_window);
      }
      mins[r] = best;
    }
    std::nth_element(mins, mins + kReplicas / 2, mins + kReplicas);
    return mins[kReplicas / 2];
  }

  int w_;
  int s_;
  std::vector<double> sorted_;       ///< all draws, ascending
  std::vector<std::uint32_t> rank_;  ///< draw index -> position in sorted_
  std::vector<int> value_;           ///< statistic per cut; -1 = not filled
};

/// The calling thread's table for (w, s), built on first use. Tables are
/// per thread so concurrent estimators share nothing; memory is bounded by
/// the distinct (w, s) pairs the thread has evaluated.
MinWindowStepTable& step_table(int w, int s) {
  thread_local std::map<std::pair<int, int>, MinWindowStepTable> tables;
  return tables.try_emplace({w, s}, w, s).first->second;
}

}  // namespace

double min_statistic_corrected_rate(double raw_rate, int window,
                                    int n_windows) {
  if (n_windows <= 1 || window <= 0) return raw_rate;
  const int s = n_windows + window - 1;
  const double k_min = raw_rate * static_cast<double>(window);
  MinWindowStepTable& typical_min = step_table(window, s);
  // Find q whose typical sliding-window minimum matches the observation
  // (monotone in q -> bisection). This captures both the Binomial tail and
  // the overlapping-window extreme-value effect without approximation.
  // We return the largest q whose typical minimum does not exceed the
  // observation (this also handles k_min = 0 correctly: many q values
  // produce a zero minimum, and the data supports any of them up to the
  // transition point).
  double lo = std::clamp(raw_rate, 0.0, 1.0);
  double hi = 1.0;
  if (typical_min.at(hi) <= k_min) return hi;
  if (typical_min.at(lo) > k_min) return lo;
  for (int it = 0; it < 22; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (typical_min.at(mid) <= k_min) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

ChannelLossEstimate estimate_channel_loss(
    std::span<const std::uint8_t> losses, int w_min) {
  ChannelLossEstimate est;
  const int s = static_cast<int>(losses.size());
  if (s == 0) return est;
  w_min = std::clamp(w_min, 1, s);

  // Prefix sums of losses for O(1) window counts.
  std::vector<int> prefix(static_cast<std::size_t>(s) + 1, 0);
  for (int i = 0; i < s; ++i)
    prefix[std::size_t(i) + 1] = prefix[std::size_t(i)] + (losses[std::size_t(i)] ? 1 : 0);
  const int total_losses = prefix[std::size_t(s)];
  est.p = static_cast<double>(total_losses) / static_cast<double>(s);

  if (total_losses == 0) {
    est.p_ch = 0.0;
    est.w_star = w_min;
    est.median_case = true;
    return est;
  }

  // p_ch^(W) for every window size.
  est.p_w.reserve(static_cast<std::size_t>(s - w_min + 1));
  for (int w = w_min; w <= s; ++w) {
    int best = w + 1;
    for (int i = 0; i + w <= s; ++i) {
      best = std::min(best, prefix[std::size_t(i + w)] - prefix[std::size_t(i)]);
      if (best == 0) break;
    }
    est.p_w.push_back(static_cast<double>(best) / static_cast<double>(w));
  }

  // Case 1, literal rule: p_ch^(W) reaches 0.99 p before W = S/2 —
  // losses are uniform and nothing needs filtering.
  const int half = std::max(w_min, s / 2);
  for (int w = w_min; w <= half; ++w) {
    if (est.p_w[std::size_t(w - w_min)] >= 0.99 * est.p) {
      est.p_ch = est.p;
      est.w_star = w;
      est.median_case = true;
      return est;
    }
  }

  // Case 2: logarithmic fit + maximum curvature, on axis-normalized
  // coordinates (w~ = w/S, y~ = p_w/p) so that "curvature" is
  // scale-invariant.
  std::vector<double> ws, ys;
  ws.reserve(est.p_w.size());
  ys.reserve(est.p_w.size());
  for (int w = w_min; w <= s; ++w) {
    ws.push_back(static_cast<double>(w) / static_cast<double>(s));
    ys.push_back(est.p_w[std::size_t(w - w_min)] / est.p);
  }
  const LogFit fit = fit_log_curve(ws, ys);
  const double w_norm_star = max_curvature_point(
      fit, static_cast<double>(w_min) / static_cast<double>(s), 1.0);
  est.w_star = std::clamp(static_cast<int>(w_norm_star * s), w_min, s);

  // The raw minimum-window rate underestimates the clean-segment loss
  // rate: the minimum of many window statistics sits in the lower tail of
  // the Binomial(W, q) distribution. Correct it by quantile matching —
  // find q whose 1/n_windows lower quantile equals the observed minimum.
  // Because the corrected statistic is (approximately) consistent for a
  // uniform process at *any* window size, we evaluate it on a coarse
  // log-spaced window grid (plus the curvature point) and keep the
  // smallest value — windows shorter than the typical collision-burst gap
  // see only channel losses.
  double corrected = min_statistic_corrected_rate(
      est.p_w[std::size_t(est.w_star - w_min)], est.w_star,
      s - est.w_star + 1);
  for (int w : {est.w_star / 2, est.w_star / 4}) {
    const int wi = std::clamp(w, 2 * w_min, s);
    const double c = min_statistic_corrected_rate(
        est.p_w[std::size_t(wi - w_min)], wi, s - wi + 1);
    corrected = std::min(corrected, c);
  }

  if (corrected >= 0.85 * est.p) {
    // Statistically indistinguishable from a uniform loss process.
    est.p_ch = est.p;
    est.median_case = true;
  } else {
    est.p_ch = std::min(corrected, est.p);
    est.median_case = false;
  }
  return est;
}

double combine_data_ack_loss(double p_data, double p_ack) {
  p_data = std::clamp(p_data, 0.0, 1.0);
  p_ack = std::clamp(p_ack, 0.0, 1.0);
  return 1.0 - (1.0 - p_data) * (1.0 - p_ack);
}

}  // namespace meshopt
