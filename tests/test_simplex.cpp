#include "opt/simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace meshopt {
namespace {

TEST(Simplex, SimpleTwoVariableMax) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {3, 2};
  lp.add_constraint({1, 1}, Relation::kLe, 4);
  lp.add_constraint({1, 3}, Relation::kLe, 6);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-7);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 0.0, 1e-7);
}

TEST(Simplex, ClassicProductMix) {
  // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> x=3, y=1.5, obj=21.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {5, 4};
  lp.add_constraint({6, 4}, Relation::kLe, 24);
  lp.add_constraint({1, 2}, Relation::kLe, 6);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 21.0, 1e-7);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 1.5, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y s.t. x + y = 5, x <= 3 -> obj = 5.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1, 1};
  lp.add_constraint({1, 1}, Relation::kEq, 5);
  lp.add_constraint({1, 0}, Relation::kLe, 3);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 5.0, 1e-7);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min x + 2y s.t. x + y >= 3, y >= 1  (as max of negative).
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-1, -2};
  lp.add_constraint({1, 1}, Relation::kGe, 3);
  lp.add_constraint({0, 1}, Relation::kGe, 1);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  // Optimum: y=1, x=2, cost 4.
  EXPECT_NEAR(sol.objective, -4.0, 1e-7);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {1};
  lp.add_constraint({1}, Relation::kLe, 1);
  lp.add_constraint({1}, Relation::kGe, 2);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1, 0};
  lp.add_constraint({0, 1}, Relation::kLe, 1);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -1 with x,y >= 0: y >= x + 1. max x + y bounded by y <= 5.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1, 1};
  lp.add_constraint({1, -1}, Relation::kLe, -1);
  lp.add_constraint({0, 1}, Relation::kLe, 5);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 9.0, 1e-7);  // x=4, y=5
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1, 1};
  lp.add_constraint({1, 0}, Relation::kLe, 1);
  lp.add_constraint({0, 1}, Relation::kLe, 1);
  lp.add_constraint({1, 1}, Relation::kLe, 2);
  lp.add_constraint({2, 2}, Relation::kLe, 4);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1, 0};
  lp.add_constraint({1, 1}, Relation::kEq, 2);
  lp.add_constraint({2, 2}, Relation::kEq, 4);  // same plane
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-7);
}

TEST(Simplex, ZeroVariableProblem) {
  LpProblem lp;
  lp.num_vars = 0;
  const auto sol = solve_lp(lp);
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.objective, 0.0);
}

TEST(Simplex, SimplexConstraintProjection) {
  // max c.x over the probability simplex picks the best coordinate.
  LpProblem lp;
  lp.num_vars = 4;
  lp.objective = {0.3, 0.9, 0.1, 0.5};
  lp.add_constraint({1, 1, 1, 1}, Relation::kEq, 1);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.9, 1e-9);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-9);
}

// Property test: random bounded LPs in 2-3 vars; verify the simplex
// solution against a fine grid search of the feasible region.
class RandomLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomLp, MatchesGridSearch) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()), "lp");
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)};
  // Box plus two random cutting planes (always feasible at origin).
  lp.add_constraint({1, 0}, Relation::kLe, 10);
  lp.add_constraint({0, 1}, Relation::kLe, 10);
  lp.add_constraint({rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)},
                    Relation::kLe, rng.uniform(2.0, 12.0));
  lp.add_constraint({rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)},
                    Relation::kLe, rng.uniform(2.0, 12.0));
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);

  double best = 0.0;
  const int grid = 400;
  for (int i = 0; i <= grid; ++i) {
    for (int j = 0; j <= grid; ++j) {
      const double x = 10.0 * i / grid;
      const double y = 10.0 * j / grid;
      bool ok = true;
      for (int ci = 0; ci < lp.num_constraints(); ++ci) {
        const double* c = lp.coeffs.row(ci);
        if (c[0] * x + c[1] * y > lp.rhs[static_cast<std::size_t>(ci)] + 1e-9)
          ok = false;
      }
      if (ok) best = std::max(best, lp.objective[0] * x + lp.objective[1] * y);
    }
  }
  EXPECT_GE(sol.objective, best - 0.05);
  EXPECT_LE(sol.objective, best + 0.2);  // grid undershoots the optimum
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLp, ::testing::Range(1, 13));

TEST(Simplex, BealeCyclingExampleTerminatesAtOptimum) {
  // Beale's classic degenerate LP: Dantzig pricing cycles forever without
  // an anti-cycling rule. The solver must fall back to Bland's rule and
  // land on the optimum 1/20.
  LpProblem lp;
  lp.num_vars = 4;
  lp.objective = {0.75, -150.0, 0.02, -6.0};
  lp.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::kLe, 0.0);
  lp.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::kLe, 0.0);
  lp.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::kLe, 1.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.05, 1e-9);
}

TEST(Simplex, DantzigPricingEntersTheFirstLargestReducedCost) {
  // maximize c.x subject to sum(x) <= 1: the first pivot enters the
  // column Dantzig pricing picks, and it stays the optimum. With ties the
  // first of them enters; the candidates sit in different lanes of the
  // blocked maximum, and in the tail past the last whole block.
  constexpr int kVars = 19;
  const auto entering = [](const std::vector<double>& c, SimplexIsa isa) {
    LpProblem lp;
    lp.num_vars = kVars;
    lp.objective = c;
    lp.add_row(Relation::kLe, 1.0);
    std::fill(lp.coeffs.row(0), lp.coeffs.row(0) + kVars, 1.0);
    LpSolver solver(isa);
    const LpSolution sol = solver.solve(lp);
    EXPECT_EQ(solver.pivots(), 1u);
    for (int j = 0; j < kVars; ++j)
      if (sol.x[static_cast<std::size_t>(j)] == 1.0) return j;
    return -1;
  };
  for (const SimplexIsa isa : {SimplexIsa::kBaseline, SimplexIsa::kAvx2}) {
    if (!simplex_isa_supported(isa)) continue;
    std::vector<double> c(kVars, 0.5);
    EXPECT_EQ(entering(std::vector<double>(kVars, 1.0), isa), 0);
    c[5] = c[13] = c[18] = 2.0;
    EXPECT_EQ(entering(c, isa), 5);
    c[18] = 3.0;
    EXPECT_EQ(entering(c, isa), 18);
    c[2] = std::numeric_limits<double>::quiet_NaN();  // never enters
    EXPECT_EQ(entering(c, isa), 18);
  }
}

TEST(Simplex, SolverWorkspaceReuseMatchesFreshSolver) {
  // An LpSolver re-used across differently-shaped problems must return
  // exactly what a fresh solver returns for each of them.
  LpSolver reused;
  RngStream rng(7, "lp-reuse");
  for (int round = 0; round < 20; ++round) {
    LpProblem lp;
    lp.num_vars = rng.uniform_int(1, 5);
    lp.objective.clear();
    for (int j = 0; j < lp.num_vars; ++j)
      lp.objective.push_back(rng.uniform(0.1, 2.0));
    const int rows = rng.uniform_int(1, 6);
    for (int i = 0; i < rows; ++i) {
      std::vector<double> c;
      for (int j = 0; j < lp.num_vars; ++j) c.push_back(rng.uniform(0.1, 1.0));
      lp.add_constraint(c, Relation::kLe, rng.uniform(1.0, 10.0));
    }
    const auto a = reused.solve(lp);
    const auto b = solve_lp(lp);
    ASSERT_EQ(a.status, b.status) << "round " << round;
    EXPECT_EQ(a.objective, b.objective) << "round " << round;
    EXPECT_EQ(a.x, b.x) << "round " << round;
  }
}

// ------------------------------------------------------------------------
// Bit-identical regression against the historical nested-vector tableau.
//
// ReferenceTableau below is a verbatim copy of the seed implementation
// (vector<vector<double>> rows, -inf artificial sentinels). The flat
// DenseMatrix rewrite must reproduce its pivot sequence exactly, so
// status, objective and every solution coordinate compare EQ — not NEAR —
// on randomized problems shaped like the optimizer's (fig03/fig04-scale
// rate-region LPs included).

namespace reference {

constexpr double kEps = 1e-9;

class ReferenceTableau {
 public:
  ReferenceTableau(const LpProblem& p) {
    m_ = p.num_constraints();
    n_orig_ = p.num_vars;
    int slack = 0, artificial = 0;
    for (int i = 0; i < m_; ++i) {
      const Relation rel =
          p.rhs[std::size_t(i)] < 0.0 ? flip(p.rels[std::size_t(i)])
                                      : p.rels[std::size_t(i)];
      if (rel == Relation::kLe) {
        ++slack;
      } else if (rel == Relation::kGe) {
        ++slack;
        ++artificial;
      } else {
        ++artificial;
      }
    }
    n_ = n_orig_ + slack + artificial;
    first_artificial_ = n_ - artificial;
    rows_.assign(std::size_t(m_), std::vector<double>(std::size_t(n_) + 1, 0.0));
    basis_.assign(std::size_t(m_), -1);
    int next_slack = n_orig_;
    int next_art = first_artificial_;
    for (int i = 0; i < m_; ++i) {
      const double sign = p.rhs[std::size_t(i)] < 0.0 ? -1.0 : 1.0;
      const Relation rel =
          p.rhs[std::size_t(i)] < 0.0 ? flip(p.rels[std::size_t(i)])
                                      : p.rels[std::size_t(i)];
      auto& row = rows_[std::size_t(i)];
      for (int j = 0; j < n_orig_; ++j)
        row[std::size_t(j)] = sign * p.coeffs(i, j);
      row[std::size_t(n_)] = sign * p.rhs[std::size_t(i)];
      if (rel == Relation::kLe) {
        row[std::size_t(next_slack)] = 1.0;
        basis_[std::size_t(i)] = next_slack++;
      } else if (rel == Relation::kGe) {
        row[std::size_t(next_slack++)] = -1.0;
        row[std::size_t(next_art)] = 1.0;
        basis_[std::size_t(i)] = next_art++;
      } else {
        row[std::size_t(next_art)] = 1.0;
        basis_[std::size_t(i)] = next_art++;
      }
    }
  }

  [[nodiscard]] bool phase1() {
    if (first_artificial_ == n_) return true;
    obj_.assign(std::size_t(n_) + 1, 0.0);
    for (int j = first_artificial_; j < n_; ++j) obj_[std::size_t(j)] = -1.0;
    make_reduced_costs_consistent();
    if (!optimize()) return false;
    if (obj_[std::size_t(n_)] > 1e-7) return false;
    drive_out_artificials();
    return true;
  }

  [[nodiscard]] LpStatus phase2(const std::vector<double>& c) {
    obj_.assign(std::size_t(n_) + 1, 0.0);
    for (int j = 0; j < n_orig_ && j < static_cast<int>(c.size()); ++j)
      obj_[std::size_t(j)] = c[std::size_t(j)];
    for (int j = first_artificial_; j < n_; ++j)
      obj_[std::size_t(j)] = -std::numeric_limits<double>::infinity();
    make_reduced_costs_consistent();
    return optimize() ? LpStatus::kOptimal : LpStatus::kUnbounded;
  }

  [[nodiscard]] std::vector<double> solution() const {
    std::vector<double> x(std::size_t(n_orig_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[std::size_t(i)];
      if (b >= 0 && b < n_orig_)
        x[std::size_t(b)] = rows_[std::size_t(i)][std::size_t(n_)];
    }
    return x;
  }

 private:
  static Relation flip(Relation r) {
    if (r == Relation::kLe) return Relation::kGe;
    if (r == Relation::kGe) return Relation::kLe;
    return Relation::kEq;
  }

  void make_reduced_costs_consistent() {
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[std::size_t(i)];
      const double coef = obj_[std::size_t(b)];
      if (std::abs(coef) < kEps || std::isinf(coef)) {
        if (std::isinf(coef)) obj_[std::size_t(b)] = 0.0;
        continue;
      }
      const auto& row = rows_[std::size_t(i)];
      for (int j = 0; j <= n_; ++j)
        obj_[std::size_t(j)] -= coef * row[std::size_t(j)];
    }
  }

  void pivot(int row, int col) {
    auto& prow = rows_[std::size_t(row)];
    const double pv = prow[std::size_t(col)];
    for (double& v : prow) v /= pv;
    for (int i = 0; i < m_; ++i) {
      if (i == row) continue;
      auto& r = rows_[std::size_t(i)];
      const double f = r[std::size_t(col)];
      if (std::abs(f) < kEps) continue;
      for (int j = 0; j <= n_; ++j)
        r[std::size_t(j)] -= f * prow[std::size_t(j)];
    }
    const double f = obj_[std::size_t(col)];
    if (std::abs(f) > kEps && !std::isinf(f)) {
      for (int j = 0; j <= n_; ++j)
        obj_[std::size_t(j)] -= f * prow[std::size_t(j)];
    }
    basis_[std::size_t(row)] = col;
  }

  [[nodiscard]] bool optimize() {
    const int max_iters = 200 * (m_ + n_ + 10);
    int iters = 0;
    bool bland = false;
    while (true) {
      if (++iters > max_iters) bland = true;
      int col = -1;
      double best = kEps;
      for (int j = 0; j < n_; ++j) {
        const double rc = obj_[std::size_t(j)];
        if (std::isinf(rc)) continue;
        if (bland) {
          if (rc > kEps) {
            col = j;
            break;
          }
        } else if (rc > best) {
          best = rc;
          col = j;
        }
      }
      if (col < 0) return true;
      int row = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int i = 0; i < m_; ++i) {
        const double a = rows_[std::size_t(i)][std::size_t(col)];
        if (a > kEps) {
          const double ratio = rows_[std::size_t(i)][std::size_t(n_)] / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && row >= 0 &&
               basis_[std::size_t(i)] < basis_[std::size_t(row)])) {
            best_ratio = ratio;
            row = i;
          }
        }
      }
      if (row < 0) return false;
      pivot(row, col);
    }
  }

  void drive_out_artificials() {
    for (int i = 0; i < m_; ++i) {
      if (basis_[std::size_t(i)] < first_artificial_) continue;
      int col = -1;
      for (int j = 0; j < first_artificial_; ++j) {
        if (std::abs(rows_[std::size_t(i)][std::size_t(j)]) > 1e-7) {
          col = j;
          break;
        }
      }
      if (col >= 0) pivot(i, col);
    }
  }

  int m_ = 0, n_orig_ = 0, n_ = 0, first_artificial_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<double> obj_;
  std::vector<int> basis_;
};

LpSolution solve_lp_reference(const LpProblem& problem) {
  LpSolution sol;
  if (problem.num_vars <= 0) {
    sol.status = LpStatus::kOptimal;
    sol.objective = 0.0;
    return sol;
  }
  ReferenceTableau t(problem);
  if (!t.phase1()) {
    sol.status = LpStatus::kInfeasible;
    return sol;
  }
  const LpStatus st = t.phase2(problem.objective);
  sol.status = st;
  if (st == LpStatus::kOptimal) {
    sol.x = t.solution();
    sol.objective = 0.0;
    for (int j = 0;
         j < problem.num_vars && j < static_cast<int>(problem.objective.size());
         ++j)
      sol.objective +=
          problem.objective[std::size_t(j)] * sol.x[std::size_t(j)];
  }
  return sol;
}

}  // namespace reference

void expect_bit_identical(const LpProblem& lp, const char* what) {
  const LpSolution now = solve_lp(lp);
  const LpSolution ref = reference::solve_lp_reference(lp);
  ASSERT_EQ(now.status, ref.status) << what;
  // EQ, not NEAR: the flat rewrite must preserve the pivot sequence and
  // the per-element arithmetic order exactly.
  EXPECT_EQ(now.objective, ref.objective) << what;
  ASSERT_EQ(now.x.size(), ref.x.size()) << what;
  for (std::size_t j = 0; j < now.x.size(); ++j)
    EXPECT_EQ(now.x[j], ref.x[j]) << what << " x[" << j << "]";
}

/// A random LP of every relation, some rows with negative rhs, boxed.
LpProblem random_mixed_lp(int seed) {
  RngStream rng(static_cast<std::uint64_t>(seed), "lp-bits");
  LpProblem lp;
  lp.num_vars = rng.uniform_int(2, 6);
  for (int j = 0; j < lp.num_vars; ++j)
    lp.objective.push_back(rng.uniform(-1.0, 2.0));
  const int rows = rng.uniform_int(2, 8);
  for (int i = 0; i < rows; ++i) {
    std::vector<double> c;
    for (int j = 0; j < lp.num_vars; ++j) c.push_back(rng.uniform(-1.0, 1.0));
    const int kind = rng.uniform_int(0, 5);
    const Relation rel = kind == 0   ? Relation::kEq
                         : kind == 1 ? Relation::kGe
                                     : Relation::kLe;
    lp.add_constraint(c, rel, rng.uniform(-2.0, 8.0));
  }
  // Box to keep most problems bounded (unbounded is a valid shared result).
  for (int j = 0; j < lp.num_vars; ++j) {
    std::vector<double> c(static_cast<std::size_t>(lp.num_vars), 0.0);
    c[static_cast<std::size_t>(j)] = 1.0;
    lp.add_constraint(c, Relation::kLe, 20.0);
  }
  return lp;
}

/// The optimizer's base problem at fig03/fig04 scale: L link rows over
/// (flows + K extreme points) variables plus the convex-weight equality.
LpProblem rate_region_lp(int seed) {
  RngStream rng(static_cast<std::uint64_t>(seed) + 100, "lp-region");
  const int links = rng.uniform_int(4, 10);
  const int flows = rng.uniform_int(2, 5);
  const int points = rng.uniform_int(8, 60);
  LpProblem lp;
  lp.num_vars = flows + points;
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (int f = 0; f < flows; ++f)
    lp.objective[static_cast<std::size_t>(f)] = rng.uniform(0.1, 1.0);
  for (int l = 0; l < links; ++l) {
    std::vector<double> row(static_cast<std::size_t>(lp.num_vars), 0.0);
    for (int f = 0; f < flows; ++f)
      row[static_cast<std::size_t>(f)] = rng.bernoulli(0.5) ? 1.0 : 0.0;
    for (int k = 0; k < points; ++k)
      row[static_cast<std::size_t>(flows + k)] =
          rng.bernoulli(0.4) ? -rng.uniform(0.1, 1.0) : 0.0;
    lp.add_constraint(row, Relation::kLe, 0.0);
  }
  std::vector<double> simplex_row(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (int k = 0; k < points; ++k)
    simplex_row[static_cast<std::size_t>(flows + k)] = 1.0;
  lp.add_constraint(simplex_row, Relation::kEq, 1.0);
  for (int f = 0; f < flows; ++f) {
    std::vector<double> row(static_cast<std::size_t>(lp.num_vars), 0.0);
    row[static_cast<std::size_t>(f)] = 1.0;
    lp.add_constraint(row, Relation::kLe, 1.0);
  }
  return lp;
}

class BitIdentical : public ::testing::TestWithParam<int> {};

TEST_P(BitIdentical, RandomMixedRelationLps) {
  expect_bit_identical(random_mixed_lp(GetParam()), "random mixed LP");
}

TEST_P(BitIdentical, RateRegionShapedLps) {
  expect_bit_identical(rate_region_lp(GetParam()), "rate-region LP");
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIdentical, ::testing::Range(1, 25));


// ------------------------------------------------------------------------
// Bitwise differential: sparse pivot kernel vs the dense kernel.
//
// DenseLpSolver below is a verbatim copy of LpSolver as it was before the
// block-sparse elimination (every pivot sweeps every row across the full
// stride). LpSolver must reproduce it bit for bit on LPs wide enough for
// the block path (a stride of 64 doubles or more) and sparse enough that
// pivot rows keep all-zero blocks, on every solve path: x, objective,
// duals and basis compare with memcmp, so even the sign of a zero must
// agree. Tableau zeros do change sign (a row flipped for a negative rhs
// holds -0.0 entries, and the dense update turns -0.0 into +0.0 when
// f * prow[j] is -0.0), so these LPs include such rows.

namespace dense_reference {

constexpr double kEps = 1e-9;

[[nodiscard]] Relation flip(Relation r) {
  if (r == Relation::kLe) return Relation::kGe;
  if (r == Relation::kGe) return Relation::kLe;
  return Relation::kEq;
}

class DenseLpSolver {
 public:
  [[nodiscard]] LpSolution solve(const LpProblem& problem);
  [[nodiscard]] LpSolution resolve_objective(const LpProblem& problem);
  [[nodiscard]] LpSolution resolve_with_added_columns(const LpProblem& problem);
  [[nodiscard]] LpSolution solve_with_basis(const LpProblem& problem,
                                            const std::vector<int>& hint);
  [[nodiscard]] const std::vector<int>& basis() const { return basis_; }
  void duals(std::vector<double>& out) const;
  [[nodiscard]] const DenseMatrix& tableau() const { return tab_; }
  [[nodiscard]] const std::vector<double>& reduced_costs() const {
    return obj_;
  }

 private:
  void load(const LpProblem& p);
  [[nodiscard]] LpSolution finish(const LpProblem& problem, LpStatus st);
  [[nodiscard]] bool phase1();
  [[nodiscard]] LpStatus phase2(const std::vector<double>& c);
  void make_reduced_costs_consistent();
  void pivot(int row, int col);
  [[nodiscard]] bool optimize(int price_limit);
  void drive_out_artificials();

  int m_ = 0;
  int n_orig_ = 0;
  int n_ = 0;
  int first_artificial_ = 0;
  int stride_ = 0;
  bool basis_cached_ = false;
  DenseMatrix tab_;
  std::vector<double> obj_;
  std::vector<int> basis_;
  std::vector<int> unit_col_;
  std::vector<double> row_sign_;
  std::vector<Relation> cached_rels_;
  std::vector<double> cached_rhs_;
};

/// Build the standard-form tableau: original variables, then slack/surplus
/// columns, then artificial columns; the last tableau column is the RHS.
void DenseLpSolver::load(const LpProblem& p) {
  m_ = p.num_constraints();
  n_orig_ = p.num_vars;

  // Count extra columns: slack for <=, surplus for >=, artificial for
  // >= and =.
  int slack = 0, artificial = 0;
  for (int i = 0; i < m_; ++i) {
    // After sign normalization rhs >= 0; relation may flip.
    const Relation rel = p.rhs[static_cast<std::size_t>(i)] < 0.0
                             ? flip(p.rels[static_cast<std::size_t>(i)])
                             : p.rels[static_cast<std::size_t>(i)];
    if (rel == Relation::kLe) {
      ++slack;
    } else if (rel == Relation::kGe) {
      ++slack;  // surplus
      ++artificial;
    } else {
      ++artificial;
    }
  }
  n_ = n_orig_ + slack + artificial;
  first_artificial_ = n_ - artificial;

  // Pad rows to a 64-byte multiple: the pivot inner loops then run over
  // whole aligned vectors. Padding elements are written to 0 here and
  // provably stay 0 (they only ever see x/pv with x == 0 and
  // x -= f * 0), so running the loops across them changes nothing.
  stride_ = (n_ + 1 + 7) & ~7;
  tab_.resize(m_, stride_, 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  unit_col_.assign(static_cast<std::size_t>(m_), -1);
  row_sign_.assign(static_cast<std::size_t>(m_), 1.0);

  int next_slack = n_orig_;
  int next_art = first_artificial_;
  for (int i = 0; i < m_; ++i) {
    const double in_rhs = p.rhs[static_cast<std::size_t>(i)];
    const double sign = in_rhs < 0.0 ? -1.0 : 1.0;
    const Relation rel = in_rhs < 0.0 ? flip(p.rels[static_cast<std::size_t>(i)])
                                      : p.rels[static_cast<std::size_t>(i)];
    const double* src = p.coeffs.row(i);
    double* row = tab_.row(i);
    for (int j = 0; j < n_orig_; ++j) row[j] = sign * src[j];
    row[n_] = sign * in_rhs;
    row_sign_[static_cast<std::size_t>(i)] = sign;

    if (rel == Relation::kLe) {
      row[next_slack] = 1.0;
      basis_[static_cast<std::size_t>(i)] = next_slack++;
    } else if (rel == Relation::kGe) {
      row[next_slack++] = -1.0;
      row[next_art] = 1.0;
      basis_[static_cast<std::size_t>(i)] = next_art++;
    } else {
      row[next_art] = 1.0;
      basis_[static_cast<std::size_t>(i)] = next_art++;
    }
    // The initially-basic column starts as a unit vector, so after any
    // pivot sequence its tableau column is the corresponding column of
    // the basis inverse — the handle duals() and
    // resolve_with_added_columns() read B^-1 through.
    unit_col_[static_cast<std::size_t>(i)] = basis_[static_cast<std::size_t>(i)];
  }
}

/// Phase 1: minimize the sum of artificial variables.
bool DenseLpSolver::phase1() {
  if (first_artificial_ == n_) return true;  // no artificials
  // Objective: maximize -(sum of artificials).
  obj_.assign(static_cast<std::size_t>(stride_), 0.0);
  for (int j = first_artificial_; j < n_; ++j)
    obj_[static_cast<std::size_t>(j)] = -1.0;
  make_reduced_costs_consistent();
  if (!optimize(n_)) return false;  // unbounded phase 1: cannot happen
  // The z-row RHS holds -z; artificials left positive mean z < 0.
  if (obj_[static_cast<std::size_t>(n_)] > 1e-7) return false;  // infeasible
  drive_out_artificials();
  return true;
}

/// Phase 2 with the real objective (maximize). Artificial columns keep a
/// zero objective coefficient and are excluded from pricing, which bars
/// them from re-entering the basis — numerically identical to the
/// historical -inf sentinel, minus the per-element isinf checks.
LpStatus DenseLpSolver::phase2(const std::vector<double>& c) {
  obj_.assign(static_cast<std::size_t>(stride_), 0.0);
  for (int j = 0; j < n_orig_ && j < static_cast<int>(c.size()); ++j)
    obj_[static_cast<std::size_t>(j)] = c[static_cast<std::size_t>(j)];
  make_reduced_costs_consistent();
  return optimize(first_artificial_) ? LpStatus::kOptimal
                                     : LpStatus::kUnbounded;
}

/// Express the objective row in terms of non-basic variables by
/// eliminating the basic columns.
void DenseLpSolver::make_reduced_costs_consistent() {
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    const double coef = obj_[static_cast<std::size_t>(b)];
    if (std::abs(coef) < kEps) continue;
    const double* row = tab_.row(i);
    double* obj = obj_.data();
    for (int j = 0; j < stride_; ++j) obj[j] -= coef * row[j];
  }
}

void DenseLpSolver::pivot(int row, int col) {
  double* prow = tab_.row(row);
  const double pv = prow[col];
  for (int j = 0; j < stride_; ++j) prow[j] /= pv;
  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    double* r = tab_.row(i);
    const double f = r[col];
    if (std::abs(f) < kEps) continue;
    for (int j = 0; j < stride_; ++j) r[j] -= f * prow[j];
  }
  const double f = obj_[static_cast<std::size_t>(col)];
  if (std::abs(f) > kEps) {
    double* obj = obj_.data();
    for (int j = 0; j < stride_; ++j) obj[j] -= f * prow[j];
  }
  basis_[static_cast<std::size_t>(row)] = col;
}

/// Pivot loop. `price_limit` bounds the entering-column scan: n_ in
/// phase 1 (every column is a candidate), first_artificial_ in phase 2
/// (artificials may not re-enter). Returns false on unboundedness.
bool DenseLpSolver::optimize(int price_limit) {
  const int max_iters = 200 * (m_ + n_ + 10);
  int iters = 0;
  bool bland = false;
  const double* obj = obj_.data();
  while (true) {
    if (++iters > max_iters) {
      bland = true;  // enforce termination
    }
    // Entering column: positive reduced cost (maximization). Dantzig
    // pricing normally; Bland's smallest-index rule once the iteration
    // budget is exhausted (anti-cycling).
    int col = -1;
    double best = kEps;
    if (bland) {
      for (int j = 0; j < price_limit; ++j) {
        if (obj[j] > kEps) {
          col = j;
          break;
        }
      }
    } else {
      for (int j = 0; j < price_limit; ++j) {
        if (obj[j] > best) {
          best = obj[j];
          col = j;
        }
      }
    }
    if (col < 0) return true;  // optimal

    // Ratio test: smallest rhs/a over rows with a > 0; ties broken toward
    // the smallest basic index (lexicographic guard against stalling).
    int row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m_; ++i) {
      const double* r = tab_.row(i);
      const double a = r[col];
      if (a > kEps) {
        const double ratio = r[n_] / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && row >= 0 &&
             basis_[static_cast<std::size_t>(i)] <
                 basis_[static_cast<std::size_t>(row)])) {
          best_ratio = ratio;
          row = i;
        }
      }
    }
    if (row < 0) return false;  // unbounded
    pivot(row, col);
  }
}

/// After phase 1, pivot any artificial variables out of the basis (or
/// detect redundant rows and leave the zero-valued artificial basic).
void DenseLpSolver::drive_out_artificials() {
  for (int i = 0; i < m_; ++i) {
    if (basis_[static_cast<std::size_t>(i)] < first_artificial_) continue;
    // Find any non-artificial column with a nonzero entry to pivot in.
    const double* r = tab_.row(i);
    int col = -1;
    for (int j = 0; j < first_artificial_; ++j) {
      if (std::abs(r[j]) > 1e-7) {
        col = j;
        break;
      }
    }
    if (col >= 0) pivot(i, col);
    // Otherwise the row is redundant; the artificial stays basic at 0.
  }
}

LpSolution DenseLpSolver::finish(const LpProblem& problem, LpStatus st) {
  LpSolution sol;
  sol.status = st;
  if (st == LpStatus::kOptimal) {
    sol.x.assign(static_cast<std::size_t>(n_orig_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b >= 0 && b < n_orig_)
        sol.x[static_cast<std::size_t>(b)] = tab_(i, n_);
    }
    sol.objective = 0.0;
    for (int j = 0;
         j < problem.num_vars && j < static_cast<int>(problem.objective.size());
         ++j) {
      sol.objective += problem.objective[static_cast<std::size_t>(j)] *
                       sol.x[static_cast<std::size_t>(j)];
    }
  }
  return sol;
}

LpSolution DenseLpSolver::solve(const LpProblem& problem) {
  basis_cached_ = false;
  LpSolution sol;
  if (problem.num_vars <= 0) {
    sol.status = LpStatus::kOptimal;
    sol.objective = 0.0;
    return sol;
  }
  if (problem.coeffs.rows() > 0 && problem.coeffs.cols() != problem.num_vars)
    throw std::invalid_argument("LP constraint arity mismatch");
  // coeffs/rels/rhs are independent public members; a hand-built problem
  // can desynchronize them, and load() indexes rels/rhs by coeffs row.
  if (static_cast<int>(problem.rels.size()) != problem.num_constraints() ||
      static_cast<int>(problem.rhs.size()) != problem.num_constraints())
    throw std::invalid_argument("LP rels/rhs size != constraint rows");
  load(problem);
  if (!phase1()) {
    sol.status = LpStatus::kInfeasible;
    return sol;
  }
  const LpStatus st = phase2(problem.objective);
  if (st == LpStatus::kOptimal) {
    // Remember the optimal basis (plus a cheap constraint fingerprint)
    // for resolve_objective() warm restarts.
    basis_cached_ = true;
    cached_rels_ = problem.rels;
    cached_rhs_ = problem.rhs;
  }
  return finish(problem, st);
}

LpSolution DenseLpSolver::resolve_objective(const LpProblem& problem) {
  if (!basis_cached_ || problem.num_vars != n_orig_ ||
      problem.num_constraints() != m_ || problem.rels != cached_rels_ ||
      problem.rhs != cached_rhs_) {
    return solve(problem);  // shape changed (or nothing cached): cold path
  }
  // The tableau rows encode the current basis independently of the
  // objective; rebuilding the reduced-cost row against the new objective
  // and re-running phase 2 restarts from the previous optimum.
  const LpStatus st = phase2(problem.objective);
  if (st != LpStatus::kOptimal) basis_cached_ = false;
  return finish(problem, st);
}

void DenseLpSolver::duals(std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(m_), 0.0);
  // After phase 2 the reduced cost of row i's initially-basic unit column
  // is -lambda_i in the sign-normalized problem; undo the rhs flip to
  // report duals in the caller's row orientation.
  for (int i = 0; i < m_; ++i) {
    out[static_cast<std::size_t>(i)] =
        -obj_[static_cast<std::size_t>(unit_col_[static_cast<std::size_t>(i)])] *
        row_sign_[static_cast<std::size_t>(i)];
  }
}

LpSolution DenseLpSolver::resolve_with_added_columns(const LpProblem& problem) {
  const int added = problem.num_vars - n_orig_;
  if (!basis_cached_ || added <= 0 || problem.num_constraints() != m_ ||
      problem.rels != cached_rels_ || problem.rhs != cached_rhs_) {
    return solve(problem);  // not a pure column append: cold path
  }
  // Transform each appended column a_j into basis coordinates, t_j =
  // B^-1 a_j, using the initially-basic unit columns of the current
  // tableau as B^-1 (one m x m multiply per column — no refactorization),
  // then splice the transformed columns in after the old caller variables
  // and re-run phase 2 from the cached basis.
  const int new_orig = problem.num_vars;
  const int new_n = n_ + added;
  const int new_stride = (new_n + 1 + 7) & ~7;
  DenseMatrix tab2(m_, new_stride, 0.0);
  for (int i = 0; i < m_; ++i) {
    const double* src = tab_.row(i);
    double* dst = tab2.row(i);
    std::copy(src, src + n_orig_, dst);
    for (int j = 0; j < added; ++j) {
      double acc = 0.0;
      for (int r = 0; r < m_; ++r) {
        acc += src[unit_col_[static_cast<std::size_t>(r)]] *
               row_sign_[static_cast<std::size_t>(r)] *
               problem.coeffs(r, n_orig_ + j);
      }
      dst[n_orig_ + j] = acc;
    }
    // Slack/artificial block and the RHS shift right by `added`.
    std::copy(src + n_orig_, src + n_ + 1, dst + new_orig);
  }
  tab_ = std::move(tab2);
  stride_ = new_stride;
  for (int& b : basis_)
    if (b >= n_orig_) b += added;
  for (int& u : unit_col_)
    if (u >= n_orig_) u += added;
  n_orig_ = new_orig;
  n_ = new_n;
  first_artificial_ += added;

  const LpStatus st = phase2(problem.objective);
  if (st != LpStatus::kOptimal) basis_cached_ = false;
  return finish(problem, st);
}

LpSolution DenseLpSolver::solve_with_basis(const LpProblem& problem,
                                      const std::vector<int>& hint) {
  basis_cached_ = false;
  if (problem.num_vars <= 0 ||
      static_cast<int>(hint.size()) != problem.num_constraints())
    return solve(problem);
  if (problem.coeffs.rows() > 0 && problem.coeffs.cols() != problem.num_vars)
    throw std::invalid_argument("LP constraint arity mismatch");
  if (static_cast<int>(problem.rels.size()) != problem.num_constraints() ||
      static_cast<int>(problem.rhs.size()) != problem.num_constraints())
    throw std::invalid_argument("LP rels/rhs size != constraint rows");
  load(problem);
  // Validate the hint against the fresh tableau layout: every entry must
  // name a distinct existing column.
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  for (int b : hint) {
    if (b < 0 || b >= n_ || seen[static_cast<std::size_t>(b)])
      return solve(problem);
    seen[static_cast<std::size_t>(b)] = 1;
  }
  // pivot() folds each elimination into the objective row too; give it a
  // zeroed row of the current stride (phase 2 rebuilds the real one).
  obj_.assign(static_cast<std::size_t>(stride_), 0.0);
  // Crash the hinted basis in row by row. Once column c is pivoted into
  // row i it stays a unit column through the remaining pivots (each later
  // pivot column has a zero entry in every previously pivoted row), so
  // sequential pivoting reconstructs the basis exactly. A vanishing pivot
  // means the basis is singular under the new coefficients — fall back.
  for (int i = 0; i < m_; ++i) {
    const int col = hint[static_cast<std::size_t>(i)];
    if (basis_[static_cast<std::size_t>(i)] == col) continue;
    if (std::abs(tab_(i, col)) <= kEps) return solve(problem);
    pivot(i, col);
  }
  // The restored basis must be primal-feasible for the (possibly drifted)
  // rhs, and any artificial left basic must sit at ~0; otherwise the warm
  // start would skip a phase 1 it actually needs.
  for (int i = 0; i < m_; ++i) {
    const double v = tab_(i, n_);
    if (v < 0.0) {
      if (v < -kEps) return solve(problem);
      tab_(i, n_) = 0.0;  // clamp fp dust so ratio tests see a clean 0
    }
    if (basis_[static_cast<std::size_t>(i)] >= first_artificial_ && v > 1e-7)
      return solve(problem);
  }
  const LpStatus st = phase2(problem.objective);
  if (st == LpStatus::kOptimal) {
    basis_cached_ = true;
    cached_rels_ = problem.rels;
    cached_rhs_ = problem.rhs;
  }
  return finish(problem, st);
}

}  // namespace dense_reference

/// memcmp equality of two vectors: bitwise, so -0.0 != +0.0.
template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

[[nodiscard]] int negative_zeros(const std::vector<double>& v) {
  int n = 0;
  for (double d : v) n += d == 0.0 && std::signbit(d) ? 1 : 0;
  return n;
}

/// memcmp equality of two matrices, shapes included.
bool same_bytes(const DenseMatrix& a, const DenseMatrix& b) {
  const auto n = static_cast<std::size_t>(a.rows()) *
                 static_cast<std::size_t>(a.cols());
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(double)) == 0);
}

/// Two solvers side by side: every call goes to both, and every output is
/// compared bitwise. Against the dense reference kernel (Differential),
/// or against LpSolver on another SimplexIsa (IsaDifferential), where the
/// pivot count and the final tableau must match as well.
template <class Reference>
class BasicDifferential {
 public:
  BasicDifferential() = default;
  BasicDifferential(LpSolver solver, Reference reference)
      : solver_(std::move(solver)), reference_(std::move(reference)) {}

  /// Outcomes seen so far, so suites can assert they reached both paths of
  /// solve_with_basis and a -0.0 in an output.
  int hints_accepted = 0;
  int hints_rejected = 0;
  int negative_zero_outputs = 0;

  template <class Call>
  void run(const Call& call, const std::string& what) {
    const LpSolution a = call(solver_);
    const LpSolution b = call(reference_);
    ASSERT_EQ(a.status, b.status) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.objective),
              std::bit_cast<std::uint64_t>(b.objective))
        << what;
    EXPECT_TRUE(same_bytes(a.x, b.x)) << what << ": x";
    std::vector<double> da, db;
    solver_.duals(da);
    reference_.duals(db);
    EXPECT_TRUE(same_bytes(da, db)) << what << ": duals";
    EXPECT_TRUE(same_bytes(solver_.basis(), reference_.basis()))
        << what << ": basis";
    if constexpr (std::is_same_v<Reference, LpSolver>) {
      EXPECT_EQ(solver_.pivots(), reference_.pivots()) << what << ": pivots";
      EXPECT_EQ(solver_.hint_used(), reference_.hint_used()) << what;
      EXPECT_TRUE(same_bytes(solver_.tableau(), reference_.tableau()))
          << what << ": tableau";
      EXPECT_TRUE(same_bytes(solver_.reduced_costs(),
                             reference_.reduced_costs()))
          << what << ": reduced costs";
    }
    negative_zero_outputs += negative_zeros(a.x) + negative_zeros(da);
  }

  void solve(const LpProblem& lp, const std::string& what) {
    run([&](auto& s) { return s.solve(lp); }, what + " solve");
  }
  void resolve_objective(const LpProblem& lp, const std::string& what) {
    run([&](auto& s) { return s.resolve_objective(lp); },
        what + " resolve_objective");
  }
  void resolve_with_added_columns(const LpProblem& lp,
                                  const std::string& what) {
    run([&](auto& s) { return s.resolve_with_added_columns(lp); },
        what + " resolve_with_added_columns");
  }
  void solve_with_basis(const LpProblem& lp, const std::vector<int>& hint,
                        const std::string& what) {
    run([&](auto& s) { return s.solve_with_basis(lp, hint); },
        what + " solve_with_basis");
    (solver_.hint_used() ? hints_accepted : hints_rejected) += 1;
  }

  [[nodiscard]] std::vector<int> basis() const { return solver_.basis(); }
  [[nodiscard]] const LpSolver& solver() const { return solver_; }
  [[nodiscard]] const Reference& reference() const { return reference_; }

 private:
  LpSolver solver_;
  Reference reference_;
};

using Differential = BasicDifferential<dense_reference::DenseLpSolver>;

/// Fill column `col` of a clique master: the link row of single-link set
/// `link` and the convexity row.
void set_clique_column(LpProblem& lp, int col, int link, double capacity,
                       int convexity_row) {
  lp.coeffs(link, col) = -capacity;
  lp.coeffs(convexity_row, col) = 1.0;
}

/// The fast tier's master over a clique component: `links` link rows
/// (routing minus the single-link columns, <= 0), the convexity row, and
/// 3 chain flows (flow j crosses links j..links-1). `cols` single-link
/// columns for links 0..cols-1.
LpProblem clique_master(RngStream& rng, int links, int cols,
                        const std::vector<double>& caps) {
  constexpr int kFlows = 3;
  LpProblem lp;
  lp.num_vars = kFlows + cols;
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (int f = 0; f < kFlows; ++f)
    lp.objective[static_cast<std::size_t>(f)] = rng.uniform(0.5, 2.0);
  for (int l = 0; l < links; ++l) {
    double* row = lp.add_row(Relation::kLe, 0.0);
    for (int f = 0; f < kFlows; ++f) row[f] = l >= f ? 1.0 : 0.0;
  }
  lp.add_row(Relation::kEq, 1.0);
  for (int k = 0; k < cols; ++k)
    set_clique_column(lp, kFlows + k, k, caps[static_cast<std::size_t>(k)],
                      links);
  return lp;
}

/// The fast tier's solve sequence on a clique master: a cold solve and
/// objective-only re-solves, a master grown by column generation, and the
/// cross-round warm start on drifted capacities.
template <class D>
void clique_master_sequence(D& d, int seed) {
  RngStream rng(static_cast<std::uint64_t>(seed), "sparse-clique");
  constexpr int kLinks = 50;
  std::vector<double> caps(kLinks);
  for (double& c : caps) c = rng.uniform(0.3, 1.0);

  // Full working set: solve, then a few objective-only re-solves (the
  // Frank–Wolfe oracle's sequence).
  LpProblem lp = clique_master(rng, kLinks, kLinks, caps);
  d.solve(lp, "clique");
  for (int it = 0; it < 3; ++it) {
    for (int f = 0; f < 3; ++f)
      lp.objective[static_cast<std::size_t>(f)] = rng.uniform(0.5, 2.0);
    d.resolve_objective(lp, "clique");
  }

  // Column generation: start from 20 columns, append the rest in rounds.
  LpProblem cg = clique_master(rng, kLinks, 20, caps);
  d.solve(cg, "clique-cg");
  for (int have = 20; have < kLinks; have += 10) {
    cg.append_vars(10);
    for (int k = have; k < have + 10; ++k)
      set_clique_column(cg, 3 + k, k, caps[static_cast<std::size_t>(k)],
                        kLinks);
    d.resolve_with_added_columns(cg, "clique-cg");
  }

  // Cross-round warm start: the last basis, offered to a drifted master.
  const std::vector<int> hint = d.basis();
  for (double& c : caps) c *= rng.uniform(0.95, 1.05);
  d.solve_with_basis(clique_master(rng, kLinks, kLinks, caps), hint,
                     "clique-drift");
}

class SparsePivotDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SparsePivotDifferential, CliqueMaster) {
  Differential d;
  clique_master_sequence(d, GetParam());
}

/// A random LP wide enough for the block path: sparse rows of every
/// relation, some with negative rhs (flipped on load, so their zeros
/// become -0.0), and a sum row that keeps it bounded.
LpProblem random_sparse_lp(RngStream& rng, int vars) {
  LpProblem lp;
  lp.num_vars = vars;
  for (int j = 0; j < vars; ++j) lp.objective.push_back(rng.uniform(-1.0, 2.0));
  const int rows = rng.uniform_int(12, 24);
  for (int i = 0; i < rows; ++i) {
    const int kind = rng.uniform_int(0, 7);
    const Relation rel = kind == 0   ? Relation::kEq
                         : kind <= 2 ? Relation::kGe
                                     : Relation::kLe;
    double* row = lp.add_row(rel, rng.uniform(-3.0, 8.0));
    for (int j = 0; j < vars; ++j)
      if (rng.bernoulli(0.15)) row[j] = rng.uniform(-1.0, 1.0);
  }
  double* sum = lp.add_row(Relation::kLe, 40.0);
  for (int j = 0; j < vars; ++j) sum[j] = 1.0;
  return lp;
}

/// Every solve path on a random sparse LP: cold, objective-only, appended
/// columns, and warm starts from its own, a drifted and a stale basis.
template <class D>
void random_sparse_sequence(D& d, int seed) {
  RngStream rng(static_cast<std::uint64_t>(seed), "sparse-random");
  LpProblem lp = random_sparse_lp(rng, rng.uniform_int(60, 80));
  d.solve(lp, "random");
  const std::vector<int> own = d.basis();
  for (double& c : lp.objective) c = rng.uniform(-1.0, 2.0);
  d.resolve_objective(lp, "random");

  // Append columns over the same rows (sum row included).
  const int before = lp.num_vars;
  lp.append_vars(8);
  for (int j = before; j < lp.num_vars; ++j) {
    lp.objective[static_cast<std::size_t>(j)] = rng.uniform(-1.0, 2.0);
    for (int r = 0; r + 1 < lp.num_constraints(); ++r)
      if (rng.bernoulli(0.15)) lp.coeffs(r, j) = rng.uniform(-1.0, 1.0);
    lp.coeffs(lp.num_constraints() - 1, j) = 1.0;
  }
  d.resolve_with_added_columns(lp, "random");

  // Warm starts: the optimal basis offered back to its own problem, then
  // to a copy with drifted coefficients.
  const std::vector<int> hint = d.basis();
  d.solve_with_basis(lp, hint, "random-own");
  LpProblem drifted = lp;
  for (int r = 0; r < drifted.num_constraints(); ++r)
    for (int j = 0; j < drifted.num_vars; ++j)
      drifted.coeffs(r, j) *= rng.uniform(0.9, 1.1);
  d.solve_with_basis(drifted, hint, "random-drift");
  d.solve_with_basis(lp, own, "random-stale");
}

TEST_P(SparsePivotDifferential, RandomSparseLps) {
  Differential d;
  random_sparse_sequence(d, GetParam());
}

/// Degenerate shapes: rate-region rows at rhs 0 (and -0.0), duplicated and
/// redundant equality rows, so phase 1 ends with artificials to drive out
/// and ties fill the ratio test. The last two variables only appear in
/// -x_a - x_b == 0: phase 1 leaves that row's artificial basic at zero,
/// and driving it out pivots on the -1 (every zero of the pivot row,
/// its rhs included, changes sign, so x_a can end basic at -0.0).
LpProblem degenerate_lp(RngStream& rng, int vars) {
  const int points_end = vars - 2;
  LpProblem lp;
  lp.num_vars = vars;
  for (int j = 0; j < vars; ++j)
    lp.objective.push_back(j < 4 ? rng.uniform(0.1, 1.0) : 0.0);
  const int links = rng.uniform_int(8, 14);
  for (int l = 0; l < links; ++l) {
    double* row = lp.add_row(Relation::kLe, l % 3 == 0 ? -0.0 : 0.0);
    for (int f = 0; f < 4; ++f) row[f] = rng.bernoulli(0.5) ? 1.0 : 0.0;
    for (int k = 4; k < points_end; ++k)
      if (rng.bernoulli(0.2)) row[k] = -rng.uniform(0.1, 1.0);
  }
  double* convex = lp.add_row(Relation::kEq, 1.0);
  for (int k = 4; k < points_end; ++k) convex[k] = 1.0;
  const std::vector<double> copy(convex, convex + vars);
  lp.add_constraint(copy, Relation::kEq, 1.0);  // redundant duplicate
  std::vector<double> neg(copy);
  for (double& v : neg) v = -v;
  lp.add_constraint(neg, Relation::kEq, -1.0);  // the same row, flipped
  for (int f = 0; f < 4; ++f) {
    double* row = lp.add_row(Relation::kGe, -0.0);
    row[f] = 1.0;
  }
  double* pair = lp.add_row(Relation::kEq, 0.0);
  pair[points_end] = -1.0;
  pair[points_end + 1] = -1.0;
  return lp;
}

template <class D>
void degenerate_sequence(D& d, int seed) {
  RngStream rng(static_cast<std::uint64_t>(seed), "sparse-degenerate");
  LpProblem lp = degenerate_lp(rng, rng.uniform_int(60, 90));
  d.solve(lp, "degenerate");
  for (int f = 0; f < 4; ++f)
    lp.objective[static_cast<std::size_t>(f)] = rng.uniform(-0.5, 1.0);
  d.resolve_objective(lp, "degenerate");
  d.solve_with_basis(lp, d.basis(), "degenerate-own");
}

TEST_P(SparsePivotDifferential, DegenerateLps) {
  Differential d;
  degenerate_sequence(d, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparsePivotDifferential,
                         ::testing::Range(1, 41));

TEST(SparsePivotDifferential, NegativePivotRowKeepsItsSignedZeros) {
  // Crashing x0 into row A (-x0 + x1 <= 0) pivots on -1: every zero of the
  // row turns into -0.0, its rhs included, so x0 is basic at -0.0. Phase
  // 2 then pivots x1 in on row B (x1 <= 0), whose rhs sits alone in a zero
  // block (64 columns before it), with f = -1 in row A: the dense update
  // turns A's rhs into -0.0 - (-1 * +0.0) = +0.0. The sparse kernel must
  // reproduce that, which it does only if the negative pivot flagged row
  // A as holding a -0.0. x2 <= 1 then ends the solve without touching A.
  constexpr int kVars = 61;  // + 3 slacks = 64 columns, then the rhs
  LpProblem lp;
  lp.num_vars = kVars;
  lp.objective.assign(kVars, 0.0);
  lp.objective[1] = 1.0;
  lp.objective[2] = 1.0;
  double* a = lp.add_row(Relation::kLe, 0.0);
  a[0] = -1.0;
  a[1] = 1.0;
  lp.add_row(Relation::kLe, 0.0)[1] = 1.0;
  lp.add_row(Relation::kLe, 1.0)[2] = 1.0;
  Differential d;
  d.solve_with_basis(lp, {0, kVars + 1, kVars + 2}, "negative-pivot");
  EXPECT_EQ(d.hints_accepted, 1);
}

TEST(SparsePivotDifferential, WideningKeepsTheSignedZerosOfANarrowTableau) {
  // The same crash on a narrow tableau (3 variables, 3 slacks), where the
  // solver keeps no -0.0 flags: x0 ends basic at -0.0 after maximizing
  // x2. Appending 58 columns makes the tableau wide (64 columns, then
  // the rhs). Column 3 enters on row B (transformed entries -1 in row A,
  // +1 in row B), and row A needs the dense update again, so the flags
  // must be recomputed when the tableau widens.
  LpProblem lp;
  lp.num_vars = 3;
  lp.objective = {0.0, 0.0, 1.0};
  lp.add_constraint({-1.0, 1.0, 0.0}, Relation::kLe, 0.0);
  lp.add_constraint({0.0, 1.0, 0.0}, Relation::kLe, 0.0);
  lp.add_constraint({0.0, 0.0, 1.0}, Relation::kLe, 1.0);
  Differential d;
  d.solve_with_basis(lp, {0, 4, 5}, "narrow");  // slacks: 3, 4, 5
  EXPECT_EQ(d.hints_accepted, 1);
  lp.append_vars(58);
  lp.objective[3] = 1.0;
  lp.coeffs(0, 3) = 1.0;
  lp.coeffs(1, 3) = 1.0;
  d.resolve_with_added_columns(lp, "widened");
}

TEST(SparsePivotDifferential, OneWidePivotDispatchesEveryRowKind) {
  // One crash pivot, x0 into row P, on a wide tableau (70 variables and 6
  // slacks, then the rhs: stride 80). P is nonzero in blocks 0, 8 and 9
  // only, so the pivot skips blocks 1-7 of the rows it sweeps: A and B.
  // Row Z holds a -0.0 in block 4 and f = -1, where the dense update
  // writes -0.0 - (-1 * +0.0) = +0.0; rows I and N have the multipliers
  // -inf and NaN, which turn the zeros of every block into NaN. Each
  // SimplexIsa copy must leave the dense kernel's tableau, byte for byte.
  constexpr int kVars = 70;
  constexpr int kP = 0, kZ = 3, kI = 4, kN = 5;
  LpProblem lp;
  lp.num_vars = kVars;
  lp.objective.assign(kVars, 0.0);
  double* p = lp.add_row(Relation::kLe, 4.0);
  p[0] = 2.0;
  p[1] = 1.0;
  double* a = lp.add_row(Relation::kLe, 3.0);
  a[0] = 1.5;
  a[20] = 1.0;
  a[40] = -2.0;
  double* b = lp.add_row(Relation::kLe, 5.0);
  b[0] = -0.5;
  b[1] = 3.0;
  b[60] = 1.0;
  double* z = lp.add_row(Relation::kLe, 2.0);
  z[0] = -1.0;
  z[33] = -0.0;
  z[50] = 1.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  lp.add_row(Relation::kLe, 1.0)[0] = -kInf;
  lp.add_row(Relation::kLe, 1.0)[0] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<int> hint = {0,         kVars + 1, kVars + 2,
                                 kVars + 3, kVars + 4, kVars + 5};
  std::vector<SimplexIsa> isas = {SimplexIsa::kBaseline};
  if (simplex_isa_supported(SimplexIsa::kAvx2))
    isas.push_back(SimplexIsa::kAvx2);
  for (const SimplexIsa isa : isas) {
    Differential d(LpSolver(isa), dense_reference::DenseLpSolver{});
    d.solve_with_basis(lp, hint, "one-pivot");
    EXPECT_EQ(d.hints_accepted, 1);
    EXPECT_EQ(d.solver().pivots(), 1u);
    const DenseMatrix& tab = d.solver().tableau();
    ASSERT_EQ(tab.cols(), 80);
    EXPECT_EQ(tab(kP, 0), 1.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tab(kZ, 33)), 0u);  // +0.0
    EXPECT_TRUE(std::isnan(tab(kI, 33)));
    EXPECT_TRUE(std::isnan(tab(kN, 33)));
    EXPECT_TRUE(same_bytes(tab, d.reference().tableau())) << "tableau";
    EXPECT_TRUE(same_bytes(d.solver().reduced_costs(),
                           d.reference().reduced_costs()))
        << "reduced costs";
  }
}

/// Solves that reach both outcomes of solve_with_basis and -0.0 values in
/// x or the duals.
template <class D>
void outcome_sequence(D& d) {
  for (int seed = 1; seed <= 40; ++seed) {
    RngStream rng(static_cast<std::uint64_t>(seed), "sparse-outcomes");
    LpProblem lp = random_sparse_lp(rng, 64);
    d.solve(lp, "outcomes");
    const std::vector<int> hint = d.basis();
    d.solve_with_basis(lp, hint, "outcomes-own");
    LpProblem other = random_sparse_lp(rng, 64);
    d.solve_with_basis(other, hint, "outcomes-other");
    d.solve(degenerate_lp(rng, 64), "outcomes-degenerate");
  }
  EXPECT_GT(d.hints_accepted, 0);
  EXPECT_GT(d.hints_rejected, 0);
  EXPECT_GT(d.negative_zero_outputs, 0);
}

TEST(SparsePivotDifferential, ReachesEveryOutcome) {
  // The suite above is only as strong as the cases it reaches.
  Differential d;
  outcome_sequence(d);
}

// ------------------------------------------------------------------------
// Both ISA variants of the solve path (SimplexIsa): the AVX2 copy must
// take the baseline's pivots and leave its tableau byte for byte, on the
// generators of both differentials above (the column-generation master
// grown by resolve_with_added_columns and the solve_with_basis crash
// included). Skipped where the build or the CPU has no AVX2 variant.

TEST(SimplexIsa, DefaultIsTheWidestSupported) {
  EXPECT_TRUE(simplex_isa_supported(SimplexIsa::kBaseline));
  const bool avx2 = simplex_isa_supported(SimplexIsa::kAvx2);
  EXPECT_EQ(simplex_default_isa(),
            avx2 ? SimplexIsa::kAvx2 : SimplexIsa::kBaseline);
  EXPECT_EQ(LpSolver().isa(), simplex_default_isa());
  EXPECT_EQ(LpSolver(SimplexIsa::kBaseline).isa(), SimplexIsa::kBaseline);
  if (!avx2) EXPECT_THROW(LpSolver{SimplexIsa::kAvx2}, std::invalid_argument);
}

using IsaDifferential = BasicDifferential<LpSolver>;

class SimplexIsaOutcomes : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simplex_isa_supported(SimplexIsa::kAvx2))
      GTEST_SKIP() << "no AVX2 variant in this build or on this CPU";
  }
  static IsaDifferential make() {
    return IsaDifferential(LpSolver(SimplexIsa::kAvx2),
                           LpSolver(SimplexIsa::kBaseline));
  }
};

class SimplexIsaDifferential : public SimplexIsaOutcomes,
                               public ::testing::WithParamInterface<int> {};

TEST_P(SimplexIsaDifferential, BitIdenticalGenerators) {
  IsaDifferential d = make();
  d.solve(random_mixed_lp(GetParam()), "random mixed LP");
  d.solve(rate_region_lp(GetParam()), "rate-region LP");
}

TEST_P(SimplexIsaDifferential, SparsePivotSequences) {
  IsaDifferential d = make();
  clique_master_sequence(d, GetParam());
  random_sparse_sequence(d, GetParam());
  degenerate_sequence(d, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexIsaDifferential,
                         ::testing::Range(1, 41));

TEST_F(SimplexIsaOutcomes, ReachesEveryOutcome) {
  IsaDifferential d = make();
  outcome_sequence(d);
}

}  // namespace
}  // namespace meshopt
