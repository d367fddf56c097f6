// Channel unit tests: RSS edits must reach the frame-start path. The
// channel keeps each directed RSS entry in both dBm and linear mW; these
// tests fail if set_rss_dbm leaves the linear copy stale, between frames
// or while a frame is in flight, and pin that end_tx visits the receivers
// captured when the frame started.

#include "phy/channel.h"

#include <gtest/gtest.h>

namespace meshopt {
namespace {

/// Counts what the channel reports to one receiver.
struct RecordingSap : PhySap {
  int decoded = 0;
  int corrupted = 0;
  bool busy = false;
  void phy_busy_changed(bool b) override { busy = b; }
  void phy_rx_done(const Frame&) override { ++decoded; }
  void phy_rx_corrupted() override { ++corrupted; }
};

constexpr TimeNs kFrameNs = micros(1000);

/// Transmitter 0 and receiver 1 on a fading-free channel, so every frame's
/// fate depends on the configured RSS alone.
struct ChannelRig {
  Simulator sim;
  RecordingSap rx;
  Channel ch;

  ChannelRig() : ch(sim, fading_free(), RngStream(7)) {
    ch.add_node(nullptr);
    ch.add_node(&rx);
  }

  static PhyParams fading_free() {
    PhyParams p;
    p.fading_sigma_db = 0.0;
    return p;
  }

  void start_frame() {
    Frame f;
    f.dst = 1;
    f.rate = Rate::kR11Mbps;
    ch.start_tx(0, f, kFrameNs);
  }

  /// Send one frame and let it end.
  void send_frame() {
    start_frame();
    sim.run();
  }
};

TEST(Channel, RssDropBetweenFramesStopsDecoding) {
  ChannelRig rig;
  const PhyParams& phy = rig.ch.phy();
  rig.ch.set_rss_dbm(0, 1, -60.0);
  rig.send_frame();
  EXPECT_EQ(rig.rx.decoded, 1);

  // Below sensitivity, still above the hear floor: the frame is heard as
  // energy but never locked.
  rig.ch.set_rss_dbm(0, 1, phy.sensitivity_dbm(Rate::kR11Mbps) - 3.0);
  rig.send_frame();
  EXPECT_EQ(rig.rx.decoded, 1);
  EXPECT_EQ(rig.rx.corrupted, 0);

  // Back up: decoded again.
  rig.ch.set_rss_dbm(0, 1, -60.0);
  rig.send_frame();
  EXPECT_EQ(rig.rx.decoded, 2);
}

TEST(Channel, RssDropMidFrameKeepsTheCapturedReceivers) {
  ChannelRig rig;
  const PhyParams& phy = rig.ch.phy();
  rig.ch.set_rss_dbm(0, 1, -60.0);

  // Below sensitivity while the first frame is in the air: that frame was
  // locked at start and still completes; the next one is not decoded.
  rig.start_frame();
  rig.sim.run_until(kFrameNs / 2);
  EXPECT_TRUE(rig.rx.busy);
  rig.ch.set_rss_dbm(0, 1, phy.sensitivity_dbm(Rate::kR11Mbps) - 3.0);
  rig.sim.run();
  EXPECT_EQ(rig.rx.decoded, 1);
  EXPECT_FALSE(rig.rx.busy);
  rig.send_frame();
  EXPECT_EQ(rig.rx.decoded, 1);

  // Out of reach while a frame is in the air: end_tx still visits the
  // receiver the frame started at, so its lock completes and its energy
  // is released; the next frame is not heard at all.
  rig.ch.set_rss_dbm(0, 1, -60.0);
  rig.start_frame();
  rig.sim.run_until(rig.sim.now() + kFrameNs / 2);
  EXPECT_TRUE(rig.rx.busy);
  rig.ch.set_rss_dbm(0, 1, -200.0);
  rig.sim.run();
  EXPECT_EQ(rig.rx.decoded, 2);
  EXPECT_FALSE(rig.rx.busy);
  EXPECT_FALSE(rig.ch.carrier_busy(1));

  rig.start_frame();
  rig.sim.run_until(rig.sim.now() + kFrameNs / 2);
  EXPECT_FALSE(rig.rx.busy);
  rig.sim.run();
  EXPECT_EQ(rig.rx.decoded, 2);
  EXPECT_EQ(rig.rx.corrupted, 0);
}

}  // namespace
}  // namespace meshopt
