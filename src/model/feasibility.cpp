#include "model/feasibility.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "opt/simplex.h"

namespace meshopt {

DenseMatrix build_extreme_point_matrix(const std::vector<double>& capacities,
                                       const ConflictGraph& conflicts,
                                       std::size_t cap) {
  const int l = static_cast<int>(capacities.size());
  if (conflicts.size() != l)
    throw std::invalid_argument(
        "extreme points: conflict graph size != link count");
  DenseMatrix points;
  points.set_cols(l);
  const int words = conflicts.row_words();
  const double* caps = capacities.data();
  conflicts.for_each_independent_set_row(
      [&points, caps, words](const std::uint64_t* bits) {
        double* row = points.append_row();
        for (int w = 0; w < words; ++w) {
          std::uint64_t word = bits[w];
          while (word != 0) {
            const int link = w * 64 + std::countr_zero(word);
            word &= word - 1;
            row[link] = caps[link];
          }
        }
      },
      cap);
  return points;
}

void fill_extreme_point_matrix(const std::vector<double>& capacities,
                               const MisRowSet& rows, DenseMatrix& out) {
  const int l = static_cast<int>(capacities.size());
  if (rows.num_links() != l)
    throw std::invalid_argument(
        "extreme points: MIS row width != link count");
  // Zero everything, then scatter via the refresh path — sharing the one
  // scatter loop makes "refresh is bit-identical to a full refill" true
  // by construction.
  out.resize(rows.count(), l, 0.0);
  refresh_extreme_point_matrix(capacities, rows, out);
}

void refresh_extreme_point_matrix(const std::vector<double>& capacities,
                                  const MisRowSet& rows, DenseMatrix& out) {
  const int l = static_cast<int>(capacities.size());
  if (rows.num_links() != l || out.rows() != rows.count() || out.cols() != l)
    throw std::invalid_argument(
        "extreme points: refresh shape mismatch with MIS rows");
  const int words = rows.row_words();
  const double* caps = capacities.data();
  for (int k = 0; k < rows.count(); ++k) {
    const std::uint64_t* bits = rows.row(k);
    double* row = out.row(k);
    for (int w = 0; w < words; ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const int link = w * 64 + std::countr_zero(word);
        word &= word - 1;
        row[link] = caps[link];
      }
    }
  }
}

FeasibilityRegion::FeasibilityRegion(DenseMatrix extreme_points)
    : points_(std::move(extreme_points)) {
  if (points_.rows() == 0)
    throw std::invalid_argument("feasibility region needs >= 1 extreme point");
}

double FeasibilityRegion::max_scaling(const std::vector<double>& load) const {
  if (static_cast<int>(load.size()) != num_links())
    throw std::invalid_argument("load arity mismatch");
  bool any_positive = false;
  for (double g : load)
    if (g > 0.0) any_positive = true;
  if (!any_positive) return std::numeric_limits<double>::infinity();

  // Variables: alpha_0..alpha_{K-1}, lambda. Maximize lambda subject to
  //   sum_k alpha_k c_kl - lambda g_l >= 0   for each link l,
  //   sum_k alpha_k = 1, alpha >= 0, lambda >= 0.
  const int k = num_points();
  LpProblem lp;
  lp.num_vars = k + 1;
  lp.objective.assign(static_cast<std::size_t>(k) + 1, 0.0);
  lp.objective.back() = 1.0;

  for (int l = 0; l < num_links(); ++l) {
    double* row = lp.add_row(Relation::kGe, 0.0);
    for (int i = 0; i < k; ++i) row[i] = points_(i, l);
    row[k] = -load[static_cast<std::size_t>(l)];
  }
  double* simplex_row = lp.add_row(Relation::kEq, 1.0);
  for (int i = 0; i < k; ++i) simplex_row[i] = 1.0;

  const LpSolution sol = solve_lp(lp);
  if (sol.status == LpStatus::kUnbounded)
    return std::numeric_limits<double>::infinity();
  if (sol.status != LpStatus::kOptimal) return 0.0;
  return sol.x.back();
}

bool FeasibilityRegion::contains(const std::vector<double>& load,
                                 double tol) const {
  return max_scaling(load) >= 1.0 - tol;
}

}  // namespace meshopt
