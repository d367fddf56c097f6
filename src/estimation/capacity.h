#pragma once
// Online capacity estimation (paper Section 5.1/5.4): turn probe loss
// patterns into per-link maxUDP-throughput estimates via the channel-loss
// estimator and the Eq. 6 representation.

#include "estimation/loss_estimator.h"
#include "mac/airtime.h"
#include "probe/probe_system.h"

namespace meshopt {

struct LinkCapacityEstimate {
  double p_data = 0.0;      ///< estimated DATA channel loss rate
  double p_ack = 0.0;       ///< estimated ACK channel loss rate
  double p_link = 0.0;      ///< combined per-attempt loss
  double capacity_bps = 0.0;  ///< Eq. 6 maxUDP estimate (payload bits/s)

  friend bool operator==(const LinkCapacityEstimate&,
                         const LinkCapacityEstimate&) = default;
};

/// Closed-form capacity from already-estimated channel loss rates.
[[nodiscard]] LinkCapacityEstimate capacity_from_losses(
    const MacTimings& t, int payload_bytes, Rate rate, double p_ch_data,
    double p_ch_ack);

/// Online path from the two probe streams' recorders: run the
/// channel-loss estimator on `data` (src's DATA probes heard at dst) and
/// `ack` (dst's ACK probes heard at src) and evaluate Eq. 6. A null
/// recorder, or one whose pattern is empty, is a dead stream (loss 1).
/// `expected_*` are the number of probes the respective sender emitted in
/// the window (used to pad trailing losses).
[[nodiscard]] LinkCapacityEstimate estimate_link_capacity(
    const MacTimings& t, int payload_bytes, Rate rate,
    const LossRecorder* data, std::uint64_t expected_data,
    const LossRecorder* ack, std::uint64_t expected_ack, int w_min = 10);

/// Full online path: read the (src -> dst) DATA stream and (dst -> src) ACK
/// stream from the receivers' monitors, run the channel-loss estimator on
/// both, and evaluate Eq. 6.
///
/// `monitor_at_dst` observes src's DATA probes; `monitor_at_src` observes
/// dst's ACK probes (the ACK travels the reverse direction).
/// `expected_*` are the number of probes the respective sender emitted in
/// the window (used to pad trailing losses).
[[nodiscard]] LinkCapacityEstimate estimate_link_capacity(
    const MacTimings& t, int payload_bytes, Rate rate,
    const ProbeMonitor& monitor_at_dst, NodeId src,
    const ProbeMonitor& monitor_at_src, NodeId dst,
    std::uint64_t expected_data, std::uint64_t expected_ack, int w_min = 10);

}  // namespace meshopt
