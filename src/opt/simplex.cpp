#include "opt/simplex.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

// The AVX2 copy of the solve path needs GCC's target pragma and an x86
// CPU check; other compilers and targets build the baseline alone.
#if defined(__GNUC__) && !defined(__clang__) && \
    (defined(__x86_64__) || defined(__i386__))
#define MESHOPT_SIMPLEX_AVX2 1
#else
#define MESHOPT_SIMPLEX_AVX2 0
#endif

namespace meshopt {

namespace simplex_baseline {
#include "opt/simplex_path.inc"
}  // namespace simplex_baseline

#if MESHOPT_SIMPLEX_AVX2
// Every function defined in this region is compiled for AVX2; the headers
// above keep their default target, so whatever of them is not inlined
// (vector growth, memmove) stays 128-bit. GCC puts a vzeroupper before
// each call and return that leaves this code with dirty upper state.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace simplex_avx2 {
#include "opt/simplex_path.inc"
}  // namespace simplex_avx2
#pragma GCC pop_options
#endif

bool simplex_isa_supported(SimplexIsa isa) {
  switch (isa) {
    case SimplexIsa::kBaseline:
      return true;
    case SimplexIsa::kAvx2:
#if MESHOPT_SIMPLEX_AVX2
    {
      // __builtin_cpu_init: a solver may be built before libgcc's own
      // constructor has filled in the CPU model.
      static const bool has_avx2 =
          (__builtin_cpu_init(), __builtin_cpu_supports("avx2") != 0);
      return has_avx2;
    }
#else
      return false;
#endif
  }
  return false;
}

SimplexIsa simplex_default_isa() {
  static const SimplexIsa isa = simplex_isa_supported(SimplexIsa::kAvx2)
                                    ? SimplexIsa::kAvx2
                                    : SimplexIsa::kBaseline;
  return isa;
}

void LpProblem::reset(int vars) {
  num_vars = vars;
  objective.assign(static_cast<std::size_t>(vars), 0.0);
  coeffs.clear();
  coeffs.set_cols(vars);
  rels.clear();
  rhs.clear();
}

void LpProblem::reserve_rows(int rows) {
  coeffs.reserve_rows(rows);
  rels.reserve(static_cast<std::size_t>(rows));
  rhs.reserve(static_cast<std::size_t>(rows));
}

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

LpSolver::LpSolver() : isa_(simplex_default_isa()) {}

LpSolver::LpSolver(SimplexIsa isa) : isa_(isa) {
  if (!simplex_isa_supported(isa))
    throw std::invalid_argument("LpSolver: ISA variant not supported here");
}

// Each solve entry picks the variant once; it then runs the whole solve,
// its fallbacks to a cold solve included.

const LpSolution& LpSolver::solve(const LpProblem& problem) {
#if MESHOPT_SIMPLEX_AVX2
  if (isa_ == SimplexIsa::kAvx2) return simplex_avx2::solve(s_, problem);
#endif
  return simplex_baseline::solve(s_, problem);
}

const LpSolution& LpSolver::resolve_objective(const LpProblem& problem) {
#if MESHOPT_SIMPLEX_AVX2
  if (isa_ == SimplexIsa::kAvx2)
    return simplex_avx2::resolve_objective(s_, problem);
#endif
  return simplex_baseline::resolve_objective(s_, problem);
}

const LpSolution& LpSolver::resolve_with_added_columns(
    const LpProblem& problem) {
#if MESHOPT_SIMPLEX_AVX2
  if (isa_ == SimplexIsa::kAvx2)
    return simplex_avx2::resolve_with_added_columns(s_, problem);
#endif
  return simplex_baseline::resolve_with_added_columns(s_, problem);
}

const LpSolution& LpSolver::solve_with_basis(
    const LpProblem& problem, const std::vector<int>& hint) {
#if MESHOPT_SIMPLEX_AVX2
  if (isa_ == SimplexIsa::kAvx2)
    return simplex_avx2::solve_with_basis(s_, problem, hint);
#endif
  return simplex_baseline::solve_with_basis(s_, problem, hint);
}

void LpSolver::duals(std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(s_.m), 0.0);
  // After phase 2 the reduced cost of row i's initially-basic unit column
  // is -lambda_i in the sign-normalized problem; undo the rhs flip to
  // report duals in the caller's row orientation.
  for (int i = 0; i < s_.m; ++i) {
    out[static_cast<std::size_t>(i)] =
        -s_.obj[static_cast<std::size_t>(
            s_.unit_col[static_cast<std::size_t>(i)])] *
        s_.row_sign[static_cast<std::size_t>(i)];
  }
}

LpSolution solve_lp(const LpProblem& problem) {
  LpSolver solver;
  return solver.solve(problem);
}

}  // namespace meshopt
