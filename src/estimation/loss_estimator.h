#pragma once
// Channel loss rate estimator (paper Section 5.3, Eq. 7).
//
// Input: the loss pattern of a broadcast-probe stream over a probing window
// of S probes (1 = lost). The measured loss rate p mixes channel losses and
// collision losses; the estimator recovers the channel-only component p_ch
// by exploiting the burstiness of collision losses:
//
//   p_ch^(W) = min over all sliding windows of size W of the in-window
//              loss rate                                            (Eq. 7)
//
//   Case 1 (median criterion): if p_ch^(W) reaches 0.99*p before W = S/2,
//     losses are uniform — no collisions to filter; p_ch = p.
//   Case 2: fit a*ln(w)+b to the p_ch^(W) sequence and take the point of
//     maximum curvature w*; p_ch = p_ch^(floor(w*)).

#include <cstdint>
#include <span>
#include <vector>

namespace meshopt {

struct ChannelLossEstimate {
  double p = 0.0;          ///< measured loss rate over the window
  double p_ch = 0.0;       ///< estimated channel-only loss rate
  int w_star = 0;          ///< window size the estimate was read at
  bool median_case = false;  ///< true if case 1 (uniform losses) fired
  std::vector<double> p_w;   ///< p_ch^(W) for W = w_min..S (diagnostics)
};

/// Run the estimator on a loss pattern (1 = lost probe, 0 = received).
/// `w_min` is the smallest sliding window (10 probes in the paper).
[[nodiscard]] ChannelLossEstimate estimate_channel_loss(
    std::span<const std::uint8_t> losses, int w_min = 10);

/// Combined per-attempt loss probability of a link from its DATA and ACK
/// channel loss rates: p = 1 - (1-pDATA)(1-pACK).
[[nodiscard]] double combine_data_ack_loss(double p_data, double p_ack);

/// Extreme-value bias correction for a minimum-over-windows loss-rate
/// statistic: the loss rate q whose 1/n_windows lower Binomial quantile in
/// a window of the given size matches the observed minimum `raw_rate`.
///
/// Cost: a 24-step bisection over a per-(window, S) step table of the
/// typical minimum (S = n_windows + window - 1). Each step is a binary
/// search over the table's 5*S sorted draws. The first call for a pair
/// builds the table in O(S log S); a cut seen for the first time adds one
/// O(S) pass. Tables are kept per thread for the life of the thread, about
/// 16*5*S bytes per distinct pair (about 16 KB at S = 200). Results are
/// bit-identical to simulating the 5*S draws on every step.
[[nodiscard]] double min_statistic_corrected_rate(double raw_rate, int window,
                                                  int n_windows);

}  // namespace meshopt
