#include "estimation/capacity.h"

namespace meshopt {

LinkCapacityEstimate capacity_from_losses(const MacTimings& t,
                                          int payload_bytes, Rate rate,
                                          double p_ch_data, double p_ch_ack) {
  LinkCapacityEstimate est;
  est.p_data = p_ch_data;
  est.p_ack = p_ch_ack;
  est.p_link = combine_data_ack_loss(p_ch_data, p_ch_ack);
  est.capacity_bps =
      max_udp_throughput_bps(t, payload_bytes, rate, est.p_link);
  return est;
}

LinkCapacityEstimate estimate_link_capacity(
    const MacTimings& t, int payload_bytes, Rate rate,
    const LossRecorder* data, std::uint64_t expected_data,
    const LossRecorder* ack, std::uint64_t expected_ack, int w_min) {
  // A stream nobody heard (no recorder, or an empty pattern): dead link.
  const auto channel_loss = [w_min](const LossRecorder* rec,
                                    std::uint64_t expected) {
    if (rec == nullptr) return 1.0;
    const auto pat = rec->pattern(expected);
    return pat.empty() ? 1.0 : estimate_channel_loss(pat, w_min).p_ch;
  };
  const double p_data = channel_loss(data, expected_data);
  const double p_ack = channel_loss(ack, expected_ack);
  return capacity_from_losses(t, payload_bytes, rate, p_data, p_ack);
}

LinkCapacityEstimate estimate_link_capacity(
    const MacTimings& t, int payload_bytes, Rate rate,
    const ProbeMonitor& monitor_at_dst, NodeId src,
    const ProbeMonitor& monitor_at_src, NodeId dst,
    std::uint64_t expected_data, std::uint64_t expected_ack, int w_min) {
  return estimate_link_capacity(
      t, payload_bytes, rate,
      monitor_at_dst.stream({src, rate, ProbeKind::kDataProbe}),
      expected_data,
      monitor_at_src.stream({dst, Rate::kR1Mbps, ProbeKind::kAckProbe}),
      expected_ack, w_min);
}

}  // namespace meshopt
