#pragma once
// MeasurementSnapshot — stage 1 of the control plane's
// snapshot → model → plan pipeline (see ARCHITECTURE.md, "Control plane").
//
// A snapshot is a plain value: everything the downstream stages need to
// build an interference model and compute a rate plan, with no reference
// to the live Network it was sensed from. That makes the rest of the
// pipeline pure — the same snapshot replayed offline (including through a
// JSON round trip) produces a bit-identical RatePlan — and lets many
// snapshots from many networks be processed concurrently.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "estimation/capacity.h"
#include "phy/radio.h"
#include "scenario/workbench.h"
#include "util/dense_matrix.h"

namespace meshopt {

class JsonValue;

/// One managed directed link as measured during a probe round.
struct SnapshotLink {
  NodeId src = -1;
  NodeId dst = -1;
  Rate rate = Rate::kR1Mbps;
  /// MAC retry limit at the transmitter (needed by the plan stage's
  /// residual-loss computation p_net = p_link^R without touching a Node).
  int retry_limit = 7;
  /// Channel-loss / capacity estimates from the probing system (Eq. 6).
  LinkCapacityEstimate estimate{};

  friend bool operator==(const SnapshotLink&, const SnapshotLink&) = default;
};

/// Set `link`'s rate and retry limit from decoded wire integers, checked
/// before the cast — shared by the JSON decoder and the MOTRACE1 codec.
/// @throws std::invalid_argument when `rate_code` names no Rate enumerator
/// or `retry_limit` is negative.
void set_decoded_link_config(SnapshotLink& link, std::int64_t rate_code,
                             std::int64_t retry_limit);

/// Value-type measurement record of one estimation window.
///
/// Invariants: `neighbors` holds unordered node pairs with first < second,
/// sorted ascending, no duplicates; `lir`, when non-empty, is an L×L
/// matrix aligned with `links` order. Both invariants are produced by
/// MeshController::sense_snapshot() and preserved by the JSON round trip.
struct MeasurementSnapshot {
  std::vector<SnapshotLink> links;
  /// Symmetric connectivity relation among the nodes touched by `links`
  /// (the two-hop interference model's neighbor predicate, evaluated once
  /// per pair at sense time).
  std::vector<std::pair<NodeId, NodeId>> neighbors;
  /// Optional measured LIR table (entry (i,j) = LIR of links i and j);
  /// empty() when the snapshot carries no LIR measurement.
  DenseMatrix lir;
  /// Binary-LIR conflict threshold that accompanies `lir`.
  double lir_threshold = 0.95;

  /// Index of the directed link src->dst in `links`; -1 when absent.
  [[nodiscard]] int link_index(NodeId src, NodeId dst) const;

  /// Symmetric neighbor lookup over the recorded relation.
  [[nodiscard]] bool is_neighbor(NodeId a, NodeId b) const;

  /// 64-bit splitmix64-chained digest of the model-stage topology inputs
  /// ONLY: link
  /// identities (src, dst, rate), the neighbor relation, and the LIR
  /// table + threshold (exact double bit patterns). Capacity/loss
  /// estimates and retry limits are deliberately excluded — they feed the
  /// capacity and plan stages, not the conflict graph — so a snapshot
  /// whose measurements drift while its topology holds keeps the same
  /// fingerprint, and the planner's model cache stays hot under load
  /// churn (see core/planner.h for the collision-safety contract).
  [[nodiscard]] std::uint64_t topology_fingerprint() const;

  /// The sub-snapshot induced by `link_ids` (indices into `links`,
  /// ascending): the named links, the neighbor pairs whose endpoints both
  /// appear among those links' endpoints, and the principal LIR submatrix.
  /// For a connected interference component this is exact for BOTH model
  /// kinds: links sharing a node always conflict, so different components
  /// have disjoint endpoint sets and no two-hop or LIR relation is lost by
  /// the restriction (see opt/decompose.h). @throws std::out_of_range on
  /// an invalid link index.
  [[nodiscard]] MeasurementSnapshot restrict_to(
      const std::vector<int>& link_ids) const;

  /// Per-link capacity estimates (bits/s), in `links` order.
  [[nodiscard]] std::vector<double> capacities() const;

  /// The links as LinkRef rows (src, dst, rate), in `links` order.
  [[nodiscard]] std::vector<LinkRef> link_refs() const;

  /// Serialize to a self-contained JSON document. Doubles are emitted
  /// with 17 significant digits, so from_json(to_json()) reconstructs a
  /// snapshot that compares equal bit-for-bit.
  [[nodiscard]] std::string to_json() const;

  /// Parse a document produced by to_json() (or hand-written to the same
  /// schema). @throws std::invalid_argument on malformed input.
  [[nodiscard]] static MeasurementSnapshot from_json(std::string_view text);

  /// Decode an already-parsed JSON value in the to_json() schema (the
  /// shared decoder behind from_json and the trace codec's JSON path).
  /// @throws std::invalid_argument on schema violations.
  [[nodiscard]] static MeasurementSnapshot from_value(const JsonValue& doc);

  friend bool operator==(const MeasurementSnapshot&,
                         const MeasurementSnapshot&) = default;
};

}  // namespace meshopt
