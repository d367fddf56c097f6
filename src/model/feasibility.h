#pragma once
// Convex feasibility-region model (paper Section 3).
//
// The region is the convex hull of K extreme points in link-rate space
// (L dimensions), closed downward (any rate vector dominated by a hull
// point is feasible — a link can always send less). Primary extreme points
// are per-link capacities; secondary points come from maximal independent
// sets via Eq. (4).

#include <vector>

#include "model/conflict_graph.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Eq. (4): refill `out` (resized to rows.count() x capacities.size();
/// same-shape refills reuse capacity) as the K x L extreme-point matrix of
/// the maximal independent sets `rows` — row k holds each member link's
/// capacity (bits/s) and zero elsewhere, in the rows' enumeration order.
/// @throws std::invalid_argument when rows.num_links() != capacities.size().
void fill_extreme_point_matrix(const std::vector<double>& capacities,
                               const MisRowSet& rows, DenseMatrix& out);

namespace detail {
/// The member-cell scatter behind fill_extreme_point_matrix: writes each
/// member link's capacity into its cell of `out` and touches nothing else.
/// InterferenceModel::refill runs it over the model's own rows and matrix,
/// which is what makes a refill bit-identical to a fill; other callers use
/// fill_extreme_point_matrix. @pre out is rows.count() x capacities.size().
void scatter_member_capacities(const std::vector<double>& capacities,
                               const MisRowSet& rows, DenseMatrix& out);
}  // namespace detail

/// Convex polytope spanned by extreme points, with downward closure.
class FeasibilityRegion {
 public:
  /// `extreme_points` is K x L (each row one extreme point, bits/s).
  explicit FeasibilityRegion(DenseMatrix extreme_points);

  [[nodiscard]] int num_links() const { return points_.cols(); }
  [[nodiscard]] int num_points() const { return points_.rows(); }
  /// The K x L extreme-point matrix.
  [[nodiscard]] const DenseMatrix& points() const { return points_; }

  /// Largest lambda such that lambda * load is feasible (dominated by a
  /// convex combination of extreme points). Returns +inf for a zero load.
  /// @pre load.size() == num_links(); entries in bits/s.
  [[nodiscard]] double max_scaling(const std::vector<double>& load) const;

  /// Is the load vector inside the region (within tolerance)?
  [[nodiscard]] bool contains(const std::vector<double>& load,
                              double tol = 1e-6) const;

 private:
  DenseMatrix points_;
};

}  // namespace meshopt
