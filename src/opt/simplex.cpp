#include "opt/simplex.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace meshopt {

namespace {

constexpr double kEps = 1e-9;

/// Tableaux narrower than this (row stride, in doubles) always take the
/// dense update and keep no -0.0 flags: at the live and serving LPs'
/// stride of about 32, the block walk and the flag upkeep cost more than
/// skipping blocks saves.
constexpr int kSparseMinStride = 64;

/// Doubles per elimination block: one 64-byte line. The stride is a
/// multiple of it (load() pads rows to 8 doubles).
constexpr int kBlock = 8;

/// True when v[0..n) holds a negative zero. The sparse elimination is
/// exact only on rows without one (see LpSolver::pivot).
[[nodiscard]] bool has_negative_zero(const double* v, int n) {
  constexpr std::uint64_t kNegativeZero = std::uint64_t{1} << 63;
  std::uint64_t found = 0;  // no early exit: the loop vectorizes
  for (int j = 0; j < n; ++j)
    found |= std::bit_cast<std::uint64_t>(v[j]) == kNegativeZero ? 1 : 0;
  return found != 0;
}

[[nodiscard]] bool block_is_zero(const double* v) {
  std::uint64_t nonzero = 0;
  for (int t = 0; t < kBlock; ++t) nonzero |= v[t] != 0.0 ? 1 : 0;
  return nonzero == 0;
}

// The block kernels stage results in a local array: the compiler cannot
// rule out that r and p overlap, and without the staging it emits eight
// scalar operations instead of one vector operation. The arithmetic per
// element is the dense loop's.

void divide_block(double* p, double pv) {
  double out[kBlock];
  for (int t = 0; t < kBlock; ++t) out[t] = p[t] / pv;
  std::copy(out, out + kBlock, p);
}

void eliminate_block(double* r, const double* p, double f) {
  double out[kBlock];
  for (int t = 0; t < kBlock; ++t) out[t] = r[t] - f * p[t];
  std::copy(out, out + kBlock, r);
}

[[nodiscard]] Relation flip(Relation r) {
  if (r == Relation::kLe) return Relation::kGe;
  if (r == Relation::kGe) return Relation::kLe;
  return Relation::kEq;
}

}  // namespace

double* LpProblem::add_row(Relation rel, double rhs_value) {
  if (coeffs.rows() == 0) {
    coeffs.clear();
    coeffs.set_cols(num_vars);
  } else if (coeffs.cols() != num_vars) {
    throw std::invalid_argument("LpProblem: num_vars changed after add_row");
  }
  rels.push_back(rel);
  rhs.push_back(rhs_value);
  return coeffs.append_row();
}

void LpProblem::add_constraint(const std::vector<double>& coeffs_row,
                               Relation rel, double rhs_value) {
  if (static_cast<int>(coeffs_row.size()) != num_vars)
    throw std::invalid_argument("LP constraint arity mismatch");
  double* row = add_row(rel, rhs_value);
  std::copy(coeffs_row.begin(), coeffs_row.end(), row);
}

void LpProblem::append_vars(int count) {
  if (count <= 0) return;
  const int old_vars = num_vars;
  num_vars += count;
  objective.resize(static_cast<std::size_t>(num_vars), 0.0);
  if (coeffs.rows() == 0) {
    coeffs.clear();
    coeffs.set_cols(num_vars);
    return;
  }
  DenseMatrix wide(coeffs.rows(), num_vars, 0.0);
  for (int r = 0; r < coeffs.rows(); ++r) {
    const double* src = coeffs.row(r);
    std::copy(src, src + old_vars, wide.row(r));
  }
  coeffs = std::move(wide);
}

/// Build the standard-form tableau: original variables, then slack/surplus
/// columns, then artificial columns; the last tableau column is the RHS.
void LpSolver::load(const LpProblem& p) {
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
  neg_zero_.assign(static_cast<std::size_t>(m_), 0);
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
    // Only the caller's coefficients and rhs can bring in a -0.0; slack
    // and artificial entries are +-1 or +0. Narrow tableaux keep no flags.
    neg_zero_[static_cast<std::size_t>(i)] =
        stride_ >= kSparseMinStride &&
        (has_negative_zero(row, n_orig_) || has_negative_zero(row + n_, 1));
  }
}

/// Phase 1: minimize the sum of artificial variables.
bool LpSolver::phase1() {
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
LpStatus LpSolver::phase2(const std::vector<double>& c) {
  obj_.assign(static_cast<std::size_t>(stride_), 0.0);
  for (int j = 0; j < n_orig_ && j < static_cast<int>(c.size()); ++j)
    obj_[static_cast<std::size_t>(j)] = c[static_cast<std::size_t>(j)];
  make_reduced_costs_consistent();
  return optimize(first_artificial_) ? LpStatus::kOptimal
                                     : LpStatus::kUnbounded;
}

/// Express the objective row in terms of non-basic variables by
/// eliminating the basic columns.
void LpSolver::make_reduced_costs_consistent() {
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    const double coef = obj_[static_cast<std::size_t>(b)];
    if (std::abs(coef) < kEps) continue;
    const double* row = tab_.row(i);
    double* obj = obj_.data();
    for (int j = 0; j < stride_; ++j) obj[j] -= coef * row[j];
  }
  obj_neg_zero_ = has_negative_zero(obj_.data(), stride_);
}

void LpSolver::pivot(int row, int col) {
  ++pivots_;
  basis_[static_cast<std::size_t>(row)] = col;
  double* prow = tab_.row(row);
  const double pv = prow[col];
  // Block-sparse elimination, bit-identical to the dense kernel (divide
  // the whole pivot row, then r[j] -= f * prow[j] over every row with
  // |f| >= kEps and the objective row). Skipping an all-zero 8-double
  // block of the pivot row is exact:
  //  * dividing a zero by a positive finite pv returns that zero, so only
  //    the nonzero blocks need the division;
  //  * for finite f, r[j] - f * (+-0) == r[j] bit for bit, unless r[j] is
  //    -0.0 (-0.0 - (-0.0) gives +0.0). Rows that may hold a -0.0
  //    (neg_zero_) and rows with a non-finite f take the dense update.
  // Processed blocks run the dense arithmetic, element for element, so
  // the tableau matches the dense kernel's down to the sign of each zero.
  // A narrow tableau, a pivot row without a zero block, or any other pv
  // runs the dense kernel outright. Only wide tableaux keep the flags.
  const bool wide = stride_ >= kSparseMinStride;
  int* blocks = nullptr;
  int nnz = 0;
  bool dense = true;
  char& prow_neg_zero = neg_zero_[static_cast<std::size_t>(row)];
  if (wide && pv > 0.0 && std::isfinite(pv)) {
    nz_blocks_.resize(static_cast<std::size_t>(stride_ / kBlock));
    blocks = nz_blocks_.data();
    for (int j = 0; j < stride_; j += kBlock) {
      double* p = prow + j;
      if (block_is_zero(p)) continue;
      blocks[nnz++] = j;
      divide_block(p, pv);
      if (has_negative_zero(p, kBlock)) prow_neg_zero = 1;  // underflow
    }
    dense = nnz == stride_ / kBlock;
  } else {
    for (int j = 0; j < stride_; ++j) prow[j] /= pv;
    if (wide) prow_neg_zero = has_negative_zero(prow, stride_);
  }

  const auto eliminate = [&](double* r, double f, bool full) {
    if (full) {
      for (int j = 0; j < stride_; ++j) r[j] -= f * prow[j];
    } else {
      for (int k = 0; k < nnz; ++k)
        eliminate_block(r + blocks[k], prow + blocks[k], f);
    }
  };
  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    double* r = tab_.row(i);
    const double f = r[col];
    if (std::abs(f) < kEps) continue;
    eliminate(r, f, dense || neg_zero_[static_cast<std::size_t>(i)] != 0 ||
                        !std::isfinite(f));
  }
  const double f = obj_[static_cast<std::size_t>(col)];
  if (std::abs(f) > kEps)
    eliminate(obj_.data(), f, dense || obj_neg_zero_ || !std::isfinite(f));
}

/// Pivot loop. `price_limit` bounds the entering-column scan: n_ in
/// phase 1 (every column is a candidate), first_artificial_ in phase 2
/// (artificials may not re-enter). Returns false on unboundedness.
bool LpSolver::optimize(int price_limit) {
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
void LpSolver::drive_out_artificials() {
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

LpSolution LpSolver::finish(const LpProblem& problem, LpStatus st) {
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

LpSolution LpSolver::solve(const LpProblem& problem) {
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

LpSolution LpSolver::resolve_objective(const LpProblem& problem) {
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

void LpSolver::duals(std::vector<double>& out) const {
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

LpSolution LpSolver::resolve_with_added_columns(const LpProblem& problem) {
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
  // Narrow tableaux keep no -0.0 flags (see pivot()), and this one may
  // just have become wide: recompute them.
  for (int i = 0; i < m_; ++i)
    neg_zero_[static_cast<std::size_t>(i)] =
        has_negative_zero(tab_.row(i), stride_);

  const LpStatus st = phase2(problem.objective);
  if (st != LpStatus::kOptimal) basis_cached_ = false;
  return finish(problem, st);
}

LpSolution LpSolver::solve_with_basis(const LpProblem& problem,
                                      const std::vector<int>& hint) {
  basis_cached_ = false;
  hint_used_ = false;
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
  obj_neg_zero_ = false;
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
  hint_used_ = true;
  const LpStatus st = phase2(problem.objective);
  if (st == LpStatus::kOptimal) {
    basis_cached_ = true;
    cached_rels_ = problem.rels;
    cached_rhs_ = problem.rhs;
  }
  return finish(problem, st);
}

LpSolution solve_lp(const LpProblem& problem) {
  LpSolver solver;
  return solver.solve(problem);
}

}  // namespace meshopt
