#pragma once
// The wireless medium.
//
// The channel holds a directed RSS matrix between nodes (filled from
// geometry by the scenario module, or set explicitly for the CS/IA/NF
// topology classes) and emulates:
//   * energy-detect + preamble-detect carrier sensing,
//   * SINR-based frame corruption under overlapping transmissions,
//   * message-in-message capture (a sufficiently stronger late frame steals
//     the receiver lock — the effect behind the paper's Fig. 5),
//   * independent per-link channel losses via an ErrorModel.
//
// MACs interact with it through start_tx() and receive PhySap callbacks.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "phy/error_model.h"
#include "phy/frame.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace meshopt {

/// Callbacks the channel raises toward a node's MAC.
class PhySap {
 public:
  virtual ~PhySap() = default;
  /// Carrier-sense state change (busy covers: own TX, locked RX, energy).
  virtual void phy_busy_changed(bool busy) = 0;
  /// A frame addressed to this node (or broadcast) was decoded.
  virtual void phy_rx_done(const Frame& frame) = 0;
  /// A decodable frame was corrupted (collision or channel error) — the
  /// MAC responds with EIFS deferral.
  virtual void phy_rx_corrupted() = 0;
};

class Channel {
 public:
  Channel(Simulator& sim, PhyParams phy, RngStream rng);

  /// Register a node; returns its id. `sap` may be null for passive nodes.
  NodeId add_node(PhySap* sap);

  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }

  /// Directed RSS (dBm) of a's signal at b. Defaults to "unreachable".
  void set_rss_dbm(NodeId a, NodeId b, double dbm);
  void set_rss_symmetric_dbm(NodeId a, NodeId b, double dbm);
  [[nodiscard]] double rss_dbm(NodeId a, NodeId b) const;

  void set_error_model(std::shared_ptr<const ErrorModel> model);
  [[nodiscard]] const ErrorModel& error_model() const { return *error_; }
  /// Shared handle to the installed model — lets a wrapper (e.g. the
  /// dynamics engine's loss overlay) layer on top of it while keeping the
  /// original alive.
  [[nodiscard]] std::shared_ptr<const ErrorModel> error_model_ptr() const {
    return error_;
  }

  [[nodiscard]] const PhyParams& phy() const { return phy_; }

  /// Would b be able to decode a's frames at `rate` on a clean channel?
  [[nodiscard]] bool decodable(NodeId a, NodeId b, Rate rate) const;

  /// Does b sense a's transmissions (either by energy or by preamble)?
  [[nodiscard]] bool senses(NodeId a, NodeId b) const;

  /// Begin a transmission. The channel schedules its own end-of-frame
  /// processing after `duration`; the caller keeps its own end timer.
  void start_tx(NodeId tx, const Frame& frame, TimeNs duration);

  [[nodiscard]] bool carrier_busy(NodeId n) const;

  /// Total frames that ended with a corrupted lock (collision-style loss),
  /// for diagnostics.
  [[nodiscard]] std::uint64_t corrupted_count() const { return corrupted_; }

 private:
  struct RxLock {
    std::uint64_t frame_id = 0;
    Frame frame;
    double rss_mw = 0.0;
    double max_interference_mw = 0.0;
    bool corrupted = false;
  };

  /// An in-flight foreign frame heard by a node. Frame ids are handed out
  /// monotonically, so appending keeps the per-node list sorted and lookup
  /// is a binary search — overlapping-frame counts are small, so a flat
  /// vector beats a hash map on both lookup and the energy sum.
  struct HeardFrame {
    std::uint64_t frame_id = 0;
    double rss_mw = 0.0;
  };

  struct PhyState {
    PhySap* sap = nullptr;
    bool transmitting = false;
    bool busy_reported = false;
    std::optional<RxLock> lock;
    /// In-flight foreign frames, sorted by frame_id. The interference
    /// energy is their left-to-right sum; hot paths that already know the
    /// sum derive updates from it (see handle_frame_start_at) instead of
    /// re-walking this list.
    std::vector<HeardFrame> heard;
    /// The frame this node is currently transmitting (valid while
    /// `transmitting`). Kept here so the end-of-frame closure captures two
    /// words instead of a whole Frame and stays inline in the event slab.
    Frame cur_frame;
    /// Receivers of this node's current transmission, snapshotted from the
    /// reach index at start_tx so end_tx visits exactly the nodes that got
    /// the frame even if RSS is edited mid-flight. Reused across frames,
    /// and re-copied only when the reach index actually changed since the
    /// last snapshot (see active_rx_gen).
    std::vector<NodeId> active_rx;
    /// Reach-index generation active_rx was snapshotted at; ~0 = never.
    std::uint64_t active_rx_gen = ~std::uint64_t{0};

    [[nodiscard]] double energy_mw() const {
      double e = 0.0;
      for (const HeardFrame& h : heard) e += h.rss_mw;
      return e;
    }
  };

  void end_tx(NodeId tx);
  void update_reach(NodeId a, NodeId b);
  void update_busy(NodeId n);
  /// update_busy with the node's interference energy already in hand —
  /// the frame-start path accumulates it once and passes it along instead
  /// of re-walking the heard list per busy check.
  void update_busy_with(NodeId n, double energy_mw);
  /// Raise phy_busy_changed if `busy` differs from the reported state.
  void report_busy(NodeId n, bool busy);
  void handle_frame_start_at(NodeId n, const Frame& f, double rss_mw);
  void finalize_lock(NodeId n, const Frame& f);
  [[nodiscard]] double sinr_db(double signal_mw, double interference_mw) const;
  [[nodiscard]] double rss_mw(NodeId a, NodeId b) const;

  Simulator& sim_;
  PhyParams phy_;
  RngStream rng_;
  std::shared_ptr<const ErrorModel> error_;
  std::vector<PhyState> nodes_;
  std::vector<std::vector<double>> rss_dbm_;  // [tx][rx]
  /// rss_dbm_ in linear mW (0 when unreachable), refreshed by set_rss_dbm
  /// so the per-frame fan-out reads it instead of re-exponentiating.
  std::vector<std::vector<double>> rss_mw_;  // [tx][rx]
  /// Per-transmitter neighbor index: receivers whose RSS from the node is
  /// above the hear floor, ascending. Maintained incrementally by
  /// set_rss_dbm so start_tx/end_tx fan out over O(degree) nodes, not O(N).
  std::vector<std::vector<NodeId>> reach_;
  /// Per-transmitter reach generation, bumped on every membership change;
  /// start_tx skips the active_rx copy when the generation is unchanged
  /// (steady-state topologies pay the snapshot once, not per frame).
  std::vector<std::uint64_t> reach_gen_;
  std::uint64_t next_frame_id_ = 1;
  std::uint64_t corrupted_ = 0;
  double noise_mw_ = 0.0;
  double cs_mw_ = 0.0;
  double hear_floor_mw_ = 0.0;
  double capture_lin_ = 0.0;  ///< capture margin as a linear power ratio
};

}  // namespace meshopt
