#pragma once
// Two-phase simplex LP solver on a flat row-major tableau: dense storage,
// sparse elimination.
//
// Scope: the optimizer's problems are small (tens of links, a few flows,
// up to a few hundred extreme points), so a dense tableau with Dantzig
// pricing and a Bland anti-cycling fallback is simple and dependable.
//
// Elimination: the tableau is stored dense, but on wide tableaux (row
// stride >= 64 doubles) a pivot lists the pivot row's nonzero 8-double
// blocks once and updates only those blocks of every other row.
// Rate-region masters over clique components are mostly exact zeros (a
// single-link independent set is a column with two nonzeros), so this
// skips most of the work. The pivot first gathers the rows to update and
// their multipliers, then sweeps block-major: each listed block of the
// pivot row is loaded into registers once and updates that block of
// every gathered row. Every path, narrow tableaux included, runs the same
// block kernels, each the dense arithmetic element by element, and rows
// that may hold a -0.0 keep the full dense update, so the tableau matches
// the dense kernel bit for bit, signs of zeros included (ARCHITECTURE.md,
// "Optimizer").
//
// Instruction sets: the solve path (opt/simplex_path.inc) is compiled once
// for the default target and once for AVX2, and each solve entry runs the
// solver's SimplexIsa copy (AVX2 when the CPU has it). Both copies perform
// the same operations in the same order, so they agree bit for bit
// (tests/test_simplex.cpp, SimplexIsaDifferential).
//
// Problem form: maximize c.x subject to a set of <=, =, >= constraints and
// x >= 0.
//
// Layout: constraint coefficients and the working tableau live in a
// DenseMatrix (one contiguous buffer, stride = column count), so the
// simplex inner loops — pricing, ratio test, pivot row updates — stream
// over contiguous memory instead of chasing one heap allocation per row
// as the previous vector<vector<double>> representation did.
//
// Determinism: for a given LpProblem the pivot sequence, and therefore
// every reported value (objective, x, status), is identical to the
// historical nested-vector implementation bit for bit
// (tests/test_simplex.cpp, ReferenceSimplex suite).

#include <cstdint>
#include <vector>

#include "util/dense_matrix.h"

namespace meshopt {

/// Terminal state of an LP solve.
enum class LpStatus : std::uint8_t { kOptimal, kInfeasible, kUnbounded };

/// Constraint sense: a.x <= b, a.x == b, or a.x >= b.
enum class Relation : std::uint8_t { kLe, kEq, kGe };

/// A linear program in the solver's native form:
///
///   maximize objective . x
///   subject to coeffs.row(i) . x  (rels[i])  rhs[i]   for every row i,
///              x >= 0.
///
/// Constraint rows are stored flat in a DenseMatrix with num_vars columns.
/// All quantities are unitless to the solver; the network optimizer feeds
/// it capacities normalized to ~1 (see NetworkOptimizer) for conditioning.
struct LpProblem {
  int num_vars = 0;               ///< number of decision variables (columns)
  std::vector<double> objective;  ///< length num_vars; maximize objective.x
  DenseMatrix coeffs;             ///< num_constraints() x num_vars
  std::vector<Relation> rels;     ///< per-row constraint sense
  std::vector<double> rhs;        ///< per-row right-hand side

  [[nodiscard]] int num_constraints() const { return coeffs.rows(); }

  /// Drop every constraint and start over with `vars` variables and a zero
  /// objective. Buffers keep their capacity, so a builder that refills a
  /// same-shaped problem every round allocates nothing.
  void reset(int vars);

  /// Make room for `rows` constraint rows at the current num_vars.
  void reserve_rows(int rows);

  /// Append a zero-filled constraint row and return its coefficient
  /// pointer (num_vars elements) for in-place fill. The preferred builder
  /// on hot paths: no per-row vector allocation.
  /// @pre num_vars is final (adding rows pins the column count).
  double* add_row(Relation rel, double rhs_value);

  /// Append a constraint from a coefficient vector (copying convenience
  /// builder; use add_row() on hot paths).
  /// @pre coeffs_row.size() == num_vars.
  void add_constraint(const std::vector<double>& coeffs_row, Relation rel,
                      double rhs_value);

  /// Widen the problem by `count` variables appended after the existing
  /// ones: every constraint row gains `count` zero coefficients (fill the
  /// real values in afterwards via coeffs(r, c)) and the objective is
  /// extended with zeros. The column-generation master grows this way;
  /// pair with LpSolver::resolve_with_added_columns for a warm re-solve
  /// that skips phase 1 entirely.
  void append_vars(int count);
};

/// Result of an LP solve. `x` and `objective` are meaningful only when
/// status == kOptimal. LpSolver returns its own copy by reference, refilled
/// in place by the next solve on that solver.
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;         ///< objective . x at the optimum
  std::vector<double> x;          ///< length num_vars, all >= 0
};

/// Instruction set a solver's solve path runs in. The path (load, both
/// phases, pricing, ratio test, pivots, crash) is compiled once for each
/// enumerator from one source (opt/simplex_path.inc). Its loops are
/// element-wise multiplies, subtracts, divides and bit tests, its one
/// reduction (the pricing maximum) is exact in any order, and neither
/// variant contracts to FMA (-ffp-contract=off; AVX2 does not imply FMA).
/// So every variant returns the same bits, takes the same pivots and
/// leaves the same tableau, signs of zeros included.
enum class SimplexIsa : std::uint8_t {
  kBaseline,  ///< the compiler's default target (128-bit SSE2 on x86-64)
  kAvx2,      ///< 256-bit AVX2 loops (x86 GCC builds, AVX2 CPUs only)
};

/// Whether this build holds the `isa` variant and the CPU can run it.
[[nodiscard]] bool simplex_isa_supported(SimplexIsa isa);

/// The variant a default-constructed LpSolver runs: kAvx2 where
/// supported, else kBaseline. The CPU is queried once per process.
[[nodiscard]] SimplexIsa simplex_default_isa();

namespace simplex_detail {

/// Working state of one LpSolver, shared by every ISA variant of the
/// solve path (see LpSolver for the meaning of the public accessors).
struct LpState {
  int m = 0;                 ///< constraint rows
  int n_orig = 0;            ///< original (caller) variables
  int n = 0;                 ///< total columns incl. slack/artificial
  int first_artificial = 0;  ///< first artificial column index
  int stride = 0;            ///< tableau row stride: n + 1 padded to 8
                             ///< doubles (64 B) so rows are SIMD-aligned
  bool basis_cached = false; ///< feasible basis available for warm solves
  bool hint_used = false;    ///< see LpSolver::hint_used()
  std::uint64_t pivots = 0;  ///< see LpSolver::pivots()
  DenseMatrix tab;           ///< m x stride; column n is the RHS,
                             ///< columns beyond it stay exactly 0
  std::vector<double> obj;   ///< reduced-cost row, length stride
  std::vector<int> basis;    ///< basic variable per row
  std::vector<int> unit_col;      ///< initially-basic column per row: the
                                  ///< slack/artificial whose tableau column
                                  ///< holds that row of the basis inverse
  std::vector<double> row_sign;   ///< +1, or -1 where load() flipped the
                                  ///< row to normalize a negative rhs
  std::vector<Relation> cached_rels;  ///< fingerprint for warm-solve guard
  std::vector<double> cached_rhs;     ///< fingerprint for warm-solve guard
  std::vector<char> neg_zero;  ///< per row: may hold a -0.0, so the sparse
                               ///< pivot must update it densely (kept on
                               ///< wide tableaux only)
  bool obj_neg_zero = false;   ///< the same for the reduced-cost row
  std::vector<int> nz_blocks;  ///< first column of each nonzero 8-double
                               ///< block of the pivot row (scratch)
  std::vector<double*> elim_rows;  ///< rows a pivot sweeps block-major,
                                   ///< the objective row included
  std::vector<double> elim_f;      ///< their multipliers (scratch, both)
  LpSolution sol;              ///< result of the most recent solve
};

}  // namespace simplex_detail

/// Reusable two-phase simplex solver.
///
/// The solver owns its tableau workspace (flat DenseMatrix + objective
/// row + basis). Solving a problem of the same or smaller shape as a
/// previous call reuses the buffers without reallocating, which matters
/// when a caller (Frank–Wolfe, max-min water-filling) issues hundreds of
/// solves over identically-shaped problems.
///
/// Each solve entry picks the solver's SimplexIsa variant once; the whole
/// solve then runs in that variant, with no per-pivot indirection.
///
/// Not thread-safe: use one LpSolver per thread.
class LpSolver {
 public:
  /// A solver on simplex_default_isa().
  LpSolver();

  /// A solver pinned to one variant (the differential tests run both).
  /// @throws std::invalid_argument if !simplex_isa_supported(isa).
  explicit LpSolver(SimplexIsa isa);

  /// The variant every solve of this solver runs in.
  [[nodiscard]] SimplexIsa isa() const { return isa_; }

  /// Solve `problem` from scratch (phase 1 + phase 2).
  ///
  /// @pre  problem.objective.size() >= effective use (missing trailing
  ///       objective coefficients are treated as 0).
  /// @pre  every constraint row has exactly problem.num_vars coefficients
  ///       (guaranteed by the LpProblem builders).
  /// @post on kOptimal: solution.x.size() == num_vars, x >= 0, and
  ///       solution.objective == objective . x recomputed in input scale.
  /// @post the returned solution is the solver's own, valid until the next
  ///       solve of any kind on this solver (copy it to keep it longer).
  [[nodiscard]] const LpSolution& solve(const LpProblem& problem);

  /// Warm re-solve: re-optimize under a NEW objective over the SAME
  /// constraints as the previous solve() / resolve_objective() call,
  /// restarting phase 2 from the cached optimal basis. This is the fast
  /// path for objective-only sequences — the Frank–Wolfe LP oracle and
  /// the max-min push solves — where the previous optimum is typically a
  /// few pivots from the new one, versus a full phase-1 + phase-2 rebuild.
  ///
  /// @pre  `problem`'s constraint rows (coeffs, rels, rhs) are identical
  ///       to the previously solved problem's; only `objective` may
  ///       differ. Shape mismatches (num_vars, row count, rels, rhs) are
  ///       detected and fall back to a cold solve(); coefficient-value
  ///       mismatches are NOT detected and yield garbage — the caller
  ///       owns that invariant.
  /// @post same as solve(). The result is an exact LP optimum (identical
  ///       objective value up to floating-point associativity; a
  ///       different-but-equally-optimal vertex may be reported when the
  ///       optimum face is degenerate).
  [[nodiscard]] const LpSolution& resolve_objective(const LpProblem& problem);

  /// Warm re-solve after the caller APPENDED variables to the previously
  /// solved problem (LpProblem::append_vars + coefficient fill). The new
  /// columns are transformed through the current basis inverse — read off
  /// the tableau's initially-basic unit columns — and phase 2 resumes from
  /// the cached optimal basis, so the cost is a handful of pivots instead
  /// of a full phase-1 rebuild. This is the column-generation master's
  /// re-solve after each pricing round.
  ///
  /// @pre  `problem` is the previously solved problem plus >= 1 appended
  ///       variables: same rows/rels/rhs, same coefficients for the old
  ///       variables (unchecked, caller-owned), objective may differ.
  ///       Shape mismatches fall back to a cold solve().
  /// @post same as solve().
  [[nodiscard]] const LpSolution& resolve_with_added_columns(
      const LpProblem& problem);

  /// Cold-structure solve that tries to start phase 2 from a caller
  /// provided basis — typically `basis()` captured from an earlier solve
  /// of an identically-shaped problem with drifted coefficients (the
  /// cross-round warm start of the column-generation planner). The hinted
  /// columns are pivoted in row by row; if any pivot vanishes or the
  /// restored basis is infeasible for the new coefficients, the solve
  /// silently falls back to the cold two-phase path, so the result is
  /// always a true optimum of `problem`.
  [[nodiscard]] const LpSolution& solve_with_basis(
      const LpProblem& problem, const std::vector<int>& hint);

  /// Whether the most recent solve_with_basis() started phase 2 from its
  /// hint (true) or fell back to the cold two-phase path (false).
  [[nodiscard]] bool hint_used() const { return s_.hint_used; }

  /// Pivots performed over this solver's lifetime, every solve path and
  /// both phases included (the crash pivots of a rejected hint too). A
  /// deterministic work count: identical inputs give identical counts.
  [[nodiscard]] std::uint64_t pivots() const { return s_.pivots; }

  /// Basic column per row of the most recent solve, in solver column
  /// layout (caller variables first, then slack/artificial). Meaningful
  /// after a kOptimal solve; feed back into solve_with_basis().
  [[nodiscard]] const std::vector<int>& basis() const { return s_.basis; }

  /// Row duals (shadow prices) of the most recent kOptimal solve, in the
  /// caller's row order and sign convention: for `maximize c.x`, the
  /// optimal objective is `sum_i duals[i] * rhs[i]` and a unit slackening
  /// of row i improves the objective by duals[i]. Read off the reduced-
  /// cost row under each row's initially-basic (slack/artificial) column.
  /// These drive the column-generation pricing oracle.
  void duals(std::vector<double>& out) const;

  /// The working tableau left by the most recent solve (constraint rows x
  /// padded stride; the column after the last slack/artificial is the
  /// rhs) and its reduced-cost row: what the ISA differential compares.
  [[nodiscard]] const DenseMatrix& tableau() const { return s_.tab; }
  [[nodiscard]] const std::vector<double>& reduced_costs() const {
    return s_.obj;
  }

 private:
  simplex_detail::LpState s_;
  SimplexIsa isa_;
};

/// One-shot convenience wrapper: constructs a fresh LpSolver and solves.
[[nodiscard]] LpSolution solve_lp(const LpProblem& problem);

}  // namespace meshopt
