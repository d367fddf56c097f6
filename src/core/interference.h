#pragma once
// InterferenceModel — stage 2 of the control plane's
// snapshot → model → plan pipeline (see ARCHITECTURE.md, "Control plane").
//
// Built from a MeasurementSnapshot alone, the model owns the conflict
// graph over the snapshot's links, its maximal independent sets and the
// K×L extreme-point matrix of the feasible rate region (Eq. 4). It is a
// plain value: buildable off-line from a deserialized snapshot, copyable,
// and usable by any number of plan_rates() calls without a live Network.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "model/conflict_graph.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Which binary interference model stage 2 builds from a snapshot.
enum class InterferenceModelKind : std::uint8_t {
  kTwoHop,    ///< links conflict within two hops (paper Section 5.5)
  kLirTable,  ///< thresholded measured LIR table (paper Section 4.2)
};

/// The conflict graph over `snap`'s links: the LIR table thresholded at
/// snap.lir_threshold when `kind` is kLirTable and the snapshot carries a
/// table, else the two-hop graph over the snapshot's recorded neighbor
/// relation (the LIR fallback mirrors the controller's historical
/// behavior). The model build and the decomposition tier's partition
/// (opt/decompose.h) both call this, so component membership and model
/// structure can never disagree.
[[nodiscard]] ConflictGraph build_conflict_graph(
    const MeasurementSnapshot& snap, InterferenceModelKind kind);

/// The model stage of one snapshot: conflict graph, its maximal
/// independent sets as packed rows, and the K×L extreme-point matrix
/// (Eq. 4) filled from exactly those rows.
class InterferenceModel {
 public:
  /// Build the model of `kind` from `snap` (see build_conflict_graph for
  /// the LIR fallback; kind() reports the model actually built). `mis_cap`
  /// bounds the independent-set enumeration (safety valve, as elsewhere).
  [[nodiscard]] static InterferenceModel build(const MeasurementSnapshot& snap,
                                               InterferenceModelKind kind,
                                               std::size_t mis_cap = 200000);

  /// Re-apply fresh capacity estimates (bits/s, in link order) to the
  /// model's own MIS rows. The rows fix the matrix's nonzero positions, so
  /// only the member cells are overwritten — bit-identical to a build over
  /// the new capacities, with nnz writes instead of K×L. The planner calls
  /// this on a cache hit (core/planner.h).
  /// @throws std::invalid_argument when capacities.size() != num_links().
  void refill(const std::vector<double>& capacities);

  /// The model actually built (see build_conflict_graph()).
  [[nodiscard]] InterferenceModelKind kind() const { return kind_; }
  [[nodiscard]] int num_links() const { return conflicts_.size(); }
  /// Pairwise conflict relation over the snapshot's links.
  [[nodiscard]] const ConflictGraph& conflicts() const { return conflicts_; }
  /// The conflict graph's maximal independent sets, in enumeration order.
  [[nodiscard]] const MisRowSet& mis_rows() const { return mis_rows_; }
  /// K×L extreme points of the feasible rate region (bits/s), one row per
  /// maximal independent set, in enumeration order.
  [[nodiscard]] const DenseMatrix& extreme_points() const {
    return extreme_points_;
  }

 private:
  InterferenceModel(InterferenceModelKind kind, ConflictGraph conflicts)
      : kind_(kind), conflicts_(std::move(conflicts)) {}

  InterferenceModelKind kind_;
  ConflictGraph conflicts_;
  MisRowSet mis_rows_;
  DenseMatrix extreme_points_;
};

}  // namespace meshopt
