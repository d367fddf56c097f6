#include "core/interference.h"

#include <stdexcept>

#include "model/feasibility.h"

namespace meshopt {

namespace {
/// The kind a build of `kind` over `snap` actually runs.
InterferenceModelKind effective_kind(const MeasurementSnapshot& snap,
                                     InterferenceModelKind kind) {
  return kind == InterferenceModelKind::kLirTable && !snap.lir.empty()
             ? InterferenceModelKind::kLirTable
             : InterferenceModelKind::kTwoHop;
}
}  // namespace

ConflictGraph build_conflict_graph(const MeasurementSnapshot& snap,
                                   InterferenceModelKind kind) {
  if (effective_kind(snap, kind) == InterferenceModelKind::kLirTable)
    return build_lir_conflict_graph(snap.lir, snap.lir_threshold);
  return build_two_hop_conflict_graph(
      snap.link_refs(),
      [&snap](NodeId a, NodeId b) { return snap.is_neighbor(a, b); });
}

InterferenceModel InterferenceModel::build(const MeasurementSnapshot& snap,
                                           InterferenceModelKind kind,
                                           std::size_t mis_cap) {
  InterferenceModel m(effective_kind(snap, kind),
                      build_conflict_graph(snap, kind));
  m.mis_rows_ = m.conflicts_.independent_set_rows(mis_cap);
  fill_extreme_point_matrix(snap.capacities(), m.mis_rows_,
                            m.extreme_points_);
  return m;
}

void InterferenceModel::refill(const std::vector<double>& capacities) {
  if (static_cast<int>(capacities.size()) != num_links())
    throw std::invalid_argument(
        "InterferenceModel: capacity arity != model link count");
  detail::scatter_member_capacities(capacities, mis_rows_, extreme_points_);
}

}  // namespace meshopt
