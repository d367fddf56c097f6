#pragma once
// LiveSource — the probing-window simulation behind the SnapshotSource
// interface (see ARCHITECTURE.md, "Trace & replay").
//
// Each next() runs one full estimation window on the live simulation
// (MeshController::sense_window): start (or keep) the broadcast probing
// system, advance simulated time by the controller's probing window, then
// sense the monitors into a MeasurementSnapshot. guarded_round over a
// LiveSource is therefore the same round as MeshController::run_round —
// same snapshots, plans, trace records and health counters — and a
// consumer written against SnapshotSource sees the same snapshot sequence
// whether it drives a live simulation here or a recorded trace through
// TraceSource.
//
// Combine with MeshController::record_to() to persist every sensed window
// to a binary trace while the live run proceeds.

#include "core/controller.h"
#include "core/snapshot_source.h"
#include "scenario/workbench.h"

namespace meshopt {

/// SnapshotSource over a live (Workbench, MeshController) pair.
class LiveSource final : public SnapshotSource {
 public:
  /// `max_windows` bounds next() calls; -1 = unbounded. The workbench and
  /// controller are borrowed and must outlive the source.
  LiveSource(Workbench& wb, MeshController& ctl, int max_windows = -1)
      : wb_(wb), ctl_(ctl), remaining_(max_windows) {}

  /// Run one probing window of simulated time and sense a snapshot.
  bool next(MeasurementSnapshot& out) override {
    if (remaining_ == 0) return false;
    if (remaining_ > 0) --remaining_;
    ctl_.sense_window(wb_);
    out = ctl_.snapshot();
    return true;
  }

  [[nodiscard]] int remaining() const override { return remaining_; }

 private:
  Workbench& wb_;
  MeshController& ctl_;
  int remaining_;
};

}  // namespace meshopt
