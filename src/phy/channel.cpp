#include "phy/channel.h"

#include <algorithm>
#include <cassert>

namespace meshopt {

namespace {
constexpr double kUnreachableDbm = -200.0;
}  // namespace

Channel::Channel(Simulator& sim, PhyParams phy, RngStream rng)
    : sim_(sim),
      phy_(phy),
      rng_(rng),
      error_(std::make_shared<PerfectChannelModel>()) {
  noise_mw_ = dbm_to_mw(phy_.noise_floor_dbm);
  cs_mw_ = dbm_to_mw(phy_.cs_threshold_dbm);
  // Signals 20 dB below the noise floor are ignored entirely.
  hear_floor_mw_ = dbm_to_mw(phy_.noise_floor_dbm - 20.0);
  capture_lin_ = dbm_to_mw(phy_.capture_margin_db);
}

NodeId Channel::add_node(PhySap* sap) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(PhyState{});
  nodes_.back().sap = sap;
  // Typical overlap depth is single digits even in dense meshes; seeding
  // the heard list's capacity keeps the first frames of a run (and every
  // frame of a short benchmark) off the allocator.
  nodes_.back().heard.reserve(8);
  for (auto& row : rss_dbm_) row.push_back(kUnreachableDbm);
  rss_dbm_.emplace_back(nodes_.size(), kUnreachableDbm);
  for (auto& row : rss_mw_) row.push_back(0.0);
  rss_mw_.emplace_back(nodes_.size(), 0.0);
  reach_.emplace_back();  // new node is unreachable by default
  reach_gen_.push_back(0);
  return id;
}

void Channel::set_rss_dbm(NodeId a, NodeId b, double dbm) {
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  rss_dbm_.at(ia).at(ib) = dbm;
  rss_mw_[ia][ib] = dbm <= kUnreachableDbm ? 0.0 : dbm_to_mw(dbm);
  update_reach(a, b);
}

void Channel::update_reach(NodeId a, NodeId b) {
  if (a == b) return;
  std::vector<NodeId>& r = reach_[static_cast<std::size_t>(a)];
  const auto it = std::lower_bound(r.begin(), r.end(), b);
  const bool was = it != r.end() && *it == b;
  const bool now = rss_mw(a, b) >= hear_floor_mw_;
  if (now && !was) {
    r.insert(it, b);
    ++reach_gen_[static_cast<std::size_t>(a)];
  } else if (!now && was) {
    r.erase(it);
    ++reach_gen_[static_cast<std::size_t>(a)];
  }
}

void Channel::set_rss_symmetric_dbm(NodeId a, NodeId b, double dbm) {
  set_rss_dbm(a, b, dbm);
  set_rss_dbm(b, a, dbm);
}

double Channel::rss_dbm(NodeId a, NodeId b) const {
  if (a == b) return kUnreachableDbm;
  return rss_dbm_.at(static_cast<std::size_t>(a))
      .at(static_cast<std::size_t>(b));
}

double Channel::rss_mw(NodeId a, NodeId b) const {
  if (a == b) return 0.0;
  return rss_mw_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

void Channel::set_error_model(std::shared_ptr<const ErrorModel> model) {
  assert(model);
  error_ = std::move(model);
}

bool Channel::decodable(NodeId a, NodeId b, Rate rate) const {
  return rss_dbm(a, b) >= phy_.sensitivity_dbm(rate);
}

bool Channel::senses(NodeId a, NodeId b) const {
  // Preamble detect works down to the most sensitive rate; energy detect at
  // the CS threshold. Sensing range is the union.
  return rss_dbm(a, b) >= std::min(phy_.cs_threshold_dbm,
                                   phy_.sensitivity_dbm(Rate::kR1Mbps));
}

double Channel::sinr_db(double signal_mw, double interference_mw) const {
  return mw_to_dbm(signal_mw) - mw_to_dbm(noise_mw_ + interference_mw);
}

bool Channel::carrier_busy(NodeId n) const {
  const PhyState& st = nodes_.at(static_cast<std::size_t>(n));
  return st.transmitting || st.lock.has_value() || st.energy_mw() >= cs_mw_;
}

void Channel::update_busy(NodeId n) {
  report_busy(n, carrier_busy(n));
}

void Channel::update_busy_with(NodeId n, double energy_mw) {
  const PhyState& st = nodes_[static_cast<std::size_t>(n)];
  report_busy(n,
              st.transmitting || st.lock.has_value() || energy_mw >= cs_mw_);
}

void Channel::report_busy(NodeId n, bool busy) {
  PhyState& st = nodes_[static_cast<std::size_t>(n)];
  if (busy != st.busy_reported) {
    st.busy_reported = busy;
    if (st.sap != nullptr) st.sap->phy_busy_changed(busy);
  }
}

void Channel::start_tx(NodeId tx, const Frame& frame_in, TimeNs duration) {
  PhyState& txs = nodes_.at(static_cast<std::size_t>(tx));
  assert(!txs.transmitting && "node already transmitting");

  Frame frame = frame_in;
  frame.id = next_frame_id_++;
  frame.tx = tx;

  // A transmitting node aborts any in-progress reception (half duplex).
  txs.lock.reset();
  txs.transmitting = true;
  txs.cur_frame = frame;
  update_busy(tx);

  // Snapshot the reach index (ascending node order keeps RNG draw order
  // identical to a full scan) so end_tx undoes exactly this fan-out. In
  // the steady state the topology does not change between frames, so the
  // snapshot from the previous frame is still exact and the copy is
  // skipped (the generation bumps on any reach membership change).
  if (txs.active_rx_gen != reach_gen_[static_cast<std::size_t>(tx)]) {
    txs.active_rx = reach_[static_cast<std::size_t>(tx)];
    txs.active_rx_gen = reach_gen_[static_cast<std::size_t>(tx)];
  }
  for (NodeId n : txs.active_rx) {
    double rss = rss_mw(tx, n);
    if (phy_.fading_sigma_db > 0.0) {
      // One lognormal fast-fading draw per frame/receiver pair.
      rss *= dbm_to_mw(rng_.normal(0.0, phy_.fading_sigma_db));
    }
    handle_frame_start_at(n, frame, rss);
  }

  sim_.schedule(duration, [this, tx] { end_tx(tx); });
}

void Channel::handle_frame_start_at(NodeId n, const Frame& f, double rss) {
  PhyState& st = nodes_[static_cast<std::size_t>(n)];
  // One accumulation pass per receiver per frame start. Everything below
  // derives from `interference_before`: appending `rss` to the heard list
  // extends the left-to-right sum by exactly one addition, so
  // `energy_now = interference_before + rss` is bit-identical to
  // re-walking the list — and the capture/interference/busy computations
  // reuse it instead of resumming per check (up to 3× under heavy
  // overlap, where the heard list is long).
  const double interference_before = st.energy_mw();
  st.heard.push_back(HeardFrame{f.id, rss});  // ids ascend: stays sorted
  const double energy_now = interference_before + rss;

  if (!st.transmitting) {
    if (!st.lock.has_value()) {
      // Try to acquire the preamble: strong enough and clean enough. The
      // SINR test only runs for frames strong enough to lock.
      const double dbm = mw_to_dbm(rss);
      if (dbm >= phy_.sensitivity_dbm(f.rate) &&
          dbm - mw_to_dbm(noise_mw_ + interference_before) >=
              phy_.sinr_min_db(f.rate)) {
        RxLock lock;
        lock.frame_id = f.id;
        lock.frame = f;
        lock.rss_mw = rss;
        lock.max_interference_mw = interference_before;
        st.lock = lock;
      }
    } else {
      RxLock& lock = *st.lock;
      if (rss >= lock.rss_mw * capture_lin_ &&
          mw_to_dbm(rss) >= phy_.sensitivity_dbm(f.rate)) {
        // Message-in-message capture: the new frame steals the receiver.
        // The interference seen by the new frame includes the old one.
        const double interf_new = energy_now - rss;
        ++corrupted_;
        if (st.sap != nullptr) st.sap->phy_rx_corrupted();
        if (sinr_db(rss, interf_new) >= phy_.sinr_min_db(f.rate)) {
          RxLock fresh;
          fresh.frame_id = f.id;
          fresh.frame = f;
          fresh.rss_mw = rss;
          fresh.max_interference_mw = interf_new;
          st.lock = fresh;
        } else {
          st.lock.reset();
        }
      } else {
        // Plain interference against the locked frame.
        const double interf = energy_now - lock.rss_mw;
        lock.max_interference_mw = std::max(lock.max_interference_mw, interf);
        if (sinr_db(lock.rss_mw, interf) <
            phy_.sinr_min_db(lock.frame.rate)) {
          lock.corrupted = true;
        }
      }
    }
  }
  update_busy_with(n, energy_now);
}

void Channel::end_tx(NodeId tx) {
  PhyState& txs = nodes_[static_cast<std::size_t>(tx)];
  const Frame frame = txs.cur_frame;
  for (NodeId n : txs.active_rx) {
    PhyState& st = nodes_[static_cast<std::size_t>(n)];
    const auto it = std::lower_bound(
        st.heard.begin(), st.heard.end(), frame.id,
        [](const HeardFrame& h, std::uint64_t id) { return h.frame_id < id; });
    if (it == st.heard.end() || it->frame_id != frame.id) continue;
    st.heard.erase(it);
    if (!st.transmitting && st.lock.has_value() &&
        st.lock->frame_id == frame.id) {
      finalize_lock(n, frame);
    }
    update_busy(n);
  }
  // active_rx is kept (not cleared): it stays a valid snapshot for the
  // next frame unless the reach index changes, which start_tx detects via
  // the generation counter.
  txs.transmitting = false;
  update_busy(tx);
}

void Channel::finalize_lock(NodeId n, const Frame& f) {
  PhyState& st = nodes_[static_cast<std::size_t>(n)];
  const RxLock lock = *st.lock;
  st.lock.reset();

  bool ok = !lock.corrupted;
  if (ok) {
    // Independent channel-error loss on an otherwise clean frame.
    const double p = error_->per(f.tx, n, f.rate, f.type);
    if (rng_.bernoulli(p)) ok = false;
  }

  if (ok) {
    if ((f.dst == n || f.dst == kBroadcast) && st.sap != nullptr) {
      st.sap->phy_rx_done(f);
    }
    // Correctly decoded frames addressed elsewhere are simply overheard.
  } else {
    ++corrupted_;
    if (st.sap != nullptr) st.sap->phy_rx_corrupted();
  }
}

}  // namespace meshopt
