#include "opt/column_gen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "opt/utility.h"

namespace meshopt {

namespace {

/// Exact branch-and-bound MWIS over packed bitset adjacency. Vertices are
/// visited in a static order (weight descending, index ascending) so
/// heavy vertices are decided first; the bound is the greedy sum of all
/// remaining candidate weights. Only positive-weight vertices ever enter
/// the candidate set, so every inclusion strictly improves the incumbent,
/// and `order` lists only those vertices.
struct MwisSearch {
  const ConflictGraph* g = nullptr;
  const double* w = nullptr;
  int n = 0;  ///< entries of `order`: the positive-weight vertices
  int words = 0;
  const int* order = nullptr;
  std::uint64_t node_cap = 0;
  std::uint64_t nodes = 0;
  bool truncated = false;
  double best_w = 0.0;
  /// Candidate set of each search depth, `words` words apiece: depth d
  /// reads slice d and builds its children's sets in slice d + 1.
  std::uint64_t* cand = nullptr;
  std::uint64_t* cur = nullptr;
  std::uint64_t* best = nullptr;

  void search(int depth, double cur_w, int from) {
    if (truncated) return;
    if (++nodes > node_cap) {
      truncated = true;
      return;
    }
    std::uint64_t* const c = cand + static_cast<std::size_t>(depth) * words;
    double bound = cur_w;
    for (int wd = 0; wd < words; ++wd) {
      std::uint64_t m = c[wd];
      while (m != 0) {
        bound += w[wd * 64 + std::countr_zero(m)];
        m &= m - 1;
      }
    }
    if (bound <= best_w + 1e-15) return;
    std::uint64_t* const sub = c + words;
    for (int oi = from; oi < n; ++oi) {
      const int v = order[oi];
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if ((c[v >> 6] & bit) == 0) continue;
      // Include v: candidates shrink to v's non-neighbors.
      cur[v >> 6] |= bit;
      const double nw = cur_w + w[v];
      if (nw > best_w) {
        best_w = nw;
        std::copy(cur, cur + words, best);
      }
      const std::uint64_t* adj = g->row(v);
      for (int wd = 0; wd < words; ++wd) sub[wd] = c[wd] & ~adj[wd];
      sub[v >> 6] &= ~bit;
      search(depth + 1, nw, oi + 1);
      cur[v >> 6] &= ~bit;
      if (truncated) return;
      // Exclude v and keep scanning; the bound tightens by w[v].
      c[v >> 6] &= ~bit;
      bound -= w[v];
      if (bound <= best_w + 1e-15) return;
    }
  }
};

/// The search's buffers, kept per thread so a warm pricing call (same or
/// smaller graph) allocates nothing.
struct MwisScratch {
  std::vector<int> order;
  std::vector<std::uint64_t> cand;
  std::vector<std::uint64_t> cur;
};

}  // namespace

double max_weight_independent_set(const ConflictGraph& graph,
                                  const std::vector<double>& weights,
                                  std::vector<std::uint64_t>& bits,
                                  std::uint64_t node_cap,
                                  std::uint64_t* nodes_visited,
                                  bool* truncated) {
  const int n = graph.size();
  const int words = graph.row_words();
  bits.assign(static_cast<std::size_t>(words), 0);
  if (nodes_visited != nullptr) *nodes_visited = 0;
  if (truncated != nullptr) *truncated = false;
  if (n == 0) return 0.0;
  if (static_cast<int>(weights.size()) != n)
    throw std::invalid_argument("MWIS weights size != graph size");

  thread_local MwisScratch scratch;
  std::vector<int>& order = scratch.order;
  order.clear();
  for (int v = 0; v < n; ++v)
    if (weights[static_cast<std::size_t>(v)] > 0.0) order.push_back(v);
  std::sort(order.begin(), order.end(), [&weights](int a, int b) {
    const double wa = weights[static_cast<std::size_t>(a)];
    const double wb = weights[static_cast<std::size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });
  // Depth d holds d included vertices and builds slice d + 1 only while a
  // candidate remains, so no depth past order.size() is ever written.
  const std::size_t slice = static_cast<std::size_t>(words);
  scratch.cand.assign((order.size() + 1) * slice, 0);
  scratch.cur.assign(slice, 0);
  for (const int v : order)
    scratch.cand[static_cast<std::size_t>(v >> 6)] |= std::uint64_t{1}
                                                      << (v & 63);

  MwisSearch s;
  s.g = &graph;
  s.w = weights.data();
  s.n = static_cast<int>(order.size());
  s.words = words;
  s.order = order.data();
  s.node_cap = node_cap;
  s.cand = scratch.cand.data();
  s.cur = scratch.cur.data();
  s.best = bits.data();
  s.search(0, 0.0, 0);

  if (nodes_visited != nullptr) *nodes_visited = s.nodes;
  if (truncated != nullptr) *truncated = s.truncated;
  return s.best_w;
}

void extend_to_maximal_independent_set(const ConflictGraph& graph,
                                       std::vector<std::uint64_t>& bits) {
  const int n = graph.size();
  const int words = graph.row_words();
  bits.resize(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> blocked(static_cast<std::size_t>(words), 0);
  for (int v = 0; v < n; ++v) {
    if ((bits[static_cast<std::size_t>(v >> 6)] >> (v & 63) & 1) == 0)
      continue;
    const std::uint64_t* adj = graph.row(v);
    for (int wd = 0; wd < words; ++wd)
      blocked[static_cast<std::size_t>(wd)] |=
          adj[static_cast<std::size_t>(wd)];
  }
  for (int v = 0; v < n; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((bits[static_cast<std::size_t>(v >> 6)] & bit) != 0) continue;
    if ((blocked[static_cast<std::size_t>(v >> 6)] & bit) != 0) continue;
    bits[static_cast<std::size_t>(v >> 6)] |= bit;
    const std::uint64_t* adj = graph.row(v);
    for (int wd = 0; wd < words; ++wd)
      blocked[static_cast<std::size_t>(wd)] |=
          adj[static_cast<std::size_t>(wd)];
  }
}

void ColumnGenOptimizer::reset() {
  columns_ = MisRowSet();
  warm_basis_.clear();
  warm_vars_ = -1;
  warm_rows_ = -1;
}

bool ColumnGenOptimizer::has_column(
    const std::vector<std::uint64_t>& bits) const {
  const int words = columns_.row_words();
  for (int k = 0; k < columns_.count(); ++k) {
    const std::uint64_t* row = columns_.row(k);
    if (std::equal(row, row + words, bits.data())) return true;
  }
  return false;
}

void ColumnGenOptimizer::seed_columns(const ColumnGenInput& in) {
  const int links = in.conflicts->size();
  if (columns_.num_links() != links) {
    columns_ = MisRowSet(links);
    warm_basis_.clear();
    warm_vars_ = -1;
    warm_rows_ = -1;
  }
  if (columns_.count() > 0) return;
  // One greedy maximal set grown from each link, deduped. Every link then
  // appears in at least one working column, so the restricted master's
  // link coverage (and its capacity normalization scale) matches the
  // exact tier's full matrix from the first solve.
  const int words = in.conflicts->row_words();
  std::vector<std::uint64_t> bits;
  for (int l = 0; l < links; ++l) {
    bits.assign(static_cast<std::size_t>(words), 0);
    bits[static_cast<std::size_t>(l >> 6)] |= std::uint64_t{1} << (l & 63);
    extend_to_maximal_independent_set(*in.conflicts, bits);
    if (has_column(bits)) continue;
    columns_.append(bits.data());
    ++stats_.columns_seeded;
  }
}

/// Mirror of the exact tier's base_problem over the working set: link
/// capacity rows, the convexity row, and safety caps for unrouted flows,
/// in the same row order so dual indices line up with link indices.
void ColumnGenOptimizer::build_master(const ColumnGenInput& in, const Shape& s,
                                      int extra_vars) {
  const int cols = columns_.count();
  // Refill in place: the master keeps its buffers from the last build.
  // Rows: links, convexity, up to one safety cap and one max-min row per
  // flow.
  master_.reset(s.flows + cols + extra_vars);
  master_.reserve_rows(s.links + 1 + 2 * s.flows);

  const double inv_scale = 1.0 / s.scale;
  for (int l = 0; l < s.links; ++l) {
    double* row = master_.add_row(Relation::kLe, 0.0);
    const double* routing = in.routing.row(l);
    for (int f = 0; f < s.flows; ++f) row[f] = routing[f];
    const int wd = l >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (l & 63);
    const double coef =
        -in.capacities[static_cast<std::size_t>(l)] * inv_scale;
    for (int k = 0; k < cols; ++k) {
      if ((columns_.row(k)[static_cast<std::size_t>(wd)] & bit) != 0)
        row[s.flows + k] = coef;
    }
  }
  convexity_row_ = s.links;
  double* simplex_row = master_.add_row(Relation::kEq, 1.0);
  for (int k = 0; k < cols; ++k) simplex_row[s.flows + k] = 1.0;

  // Safety cap: a flow crossing no modeled link would be unbounded.
  for (int f = 0; f < s.flows; ++f) {
    bool routed = false;
    for (int l = 0; l < s.links; ++l)
      if (in.routing(l, f) > 0.0) routed = true;
    if (!routed) {
      double* row = master_.add_row(Relation::kLe, 1.0);
      row[f] = 1.0;
    }
  }
}

int ColumnGenOptimizer::append_column_to_master(
    const std::vector<std::uint64_t>& bits, const ColumnGenInput& in,
    const Shape& s) {
  columns_.append(bits.data());
  master_.append_vars(1);
  const int col = master_.num_vars - 1;
  const double inv_scale = 1.0 / s.scale;
  for (int l = 0; l < s.links; ++l) {
    if ((bits[static_cast<std::size_t>(l >> 6)] >> (l & 63) & 1) != 0)
      master_.coeffs(l, col) =
          -in.capacities[static_cast<std::size_t>(l)] * inv_scale;
  }
  master_.coeffs(convexity_row_, col) = 1.0;
  return col;
}

bool ColumnGenOptimizer::price_one(const ColumnGenInput& in, const Shape& s) {
  ++stats_.pricing_rounds;
  ++solve_pricing_rounds_;
  lp_.duals(duals_);
  // Reduced cost of a candidate column w (zero objective coefficient):
  //   d_w = sum_{l in w} c_l/scale * lambda_l - mu,
  // with lambda the link-row duals (>= 0 for binding <= rows; clamp fp
  // dust) and mu the convexity-row dual. Maximizing sum lambda_l c_l over
  // independent sets is exactly MWIS on the conflict graph, and the
  // search is exact, so d_best <= pricing_tol certifies optimality over
  // the FULL rate region — every one of the K unseen columns is covered.
  const double mu = duals_[static_cast<std::size_t>(convexity_row_)];
  const double inv_scale = 1.0 / s.scale;
  weights_.assign(static_cast<std::size_t>(s.links), 0.0);
  for (int l = 0; l < s.links; ++l) {
    weights_[static_cast<std::size_t>(l)] =
        std::max(duals_[static_cast<std::size_t>(l)], 0.0) *
        in.capacities[static_cast<std::size_t>(l)] * inv_scale;
  }
  std::uint64_t nodes = 0;
  bool truncated = false;
  const double best = max_weight_independent_set(
      *in.conflicts, weights_, cand_bits_, cg_.mwis_node_cap, &nodes,
      &truncated);
  stats_.oracle_nodes += nodes;
  if (truncated) ++stats_.oracle_truncated;
  const double reduced = best - mu;
  if (reduced <= cg_.pricing_tol) return false;
  // Extend to a maximal set (added links carry weight >= 0, so the true
  // reduced cost only grows) — the working set then holds exactly the
  // kind of column the exact tier enumerates.
  extend_to_maximal_independent_set(*in.conflicts, cand_bits_);
  if (has_column(cand_bits_)) {
    // The oracle re-derived a column the master already has: the duals
    // are fp-degenerate. Stop pricing rather than cycle — the working-set
    // optimum is already within solver epsilon of the full optimum.
    return false;
  }
  if (on_admit) {
    ColumnAdmission a;
    a.pricing_round = solve_pricing_rounds_;
    a.reduced_cost = reduced;
    for (int l = 0; l < s.links; ++l) {
      if ((cand_bits_[static_cast<std::size_t>(l >> 6)] >> (l & 63) & 1) != 0)
        a.links.push_back(l);
    }
    on_admit(a);
  }
  append_column_to_master(cand_bits_, in, s);
  ++stats_.columns_admitted;
  return true;
}

LpSolution ColumnGenOptimizer::cg_solve(const ColumnGenInput& in,
                                        const Shape& s, Start start) {
  LpSolution sol;
  switch (start) {
    case Start::kWarmBasis:
      if (!warm_basis_.empty() && warm_vars_ == master_.num_vars &&
          warm_rows_ == master_.num_constraints()) {
        ++stats_.warm_starts;
        sol = lp_.solve_with_basis(master_, warm_basis_);
        if (!lp_.hint_used()) ++stats_.warm_start_fallbacks;
      } else {
        sol = lp_.solve(master_);
      }
      break;
    case Start::kCold:
      sol = lp_.solve(master_);
      break;
    case Start::kResolveObjective:
      sol = lp_.resolve_objective(master_);
      break;
  }
  ++stats_.master_solves;
  int rounds = 0;
  while (sol.status == LpStatus::kOptimal && rounds < cg_.max_pricing_rounds) {
    ++rounds;
    if (!price_one(in, s)) break;
    sol = lp_.resolve_with_added_columns(master_);
    ++stats_.master_solves;
  }
  stats_.pivots = lp_.pivots();
  return sol;
}

void ColumnGenOptimizer::save_basis() {
  warm_basis_ = lp_.basis();
  warm_vars_ = master_.num_vars;
  warm_rows_ = master_.num_constraints();
}

OptimizerResult ColumnGenOptimizer::unpack(const LpSolution& sol,
                                           const Shape& s) {
  OptimizerResult r;
  if (sol.status != LpStatus::kOptimal) return r;
  r.ok = true;
  r.y.assign(static_cast<std::size_t>(s.flows), 0.0);
  r.alpha_weights.assign(static_cast<std::size_t>(columns_.count()), 0.0);
  for (int f = 0; f < s.flows; ++f)
    r.y[static_cast<std::size_t>(f)] =
        sol.x[static_cast<std::size_t>(f)] * s.scale;
  for (int k = 0; k < columns_.count(); ++k)
    r.alpha_weights[static_cast<std::size_t>(k)] =
        sol.x[static_cast<std::size_t>(s.flows + k)];
  return r;
}

OptimizerResult ColumnGenOptimizer::solve_max_throughput(
    const ColumnGenInput& in, const Shape& s) {
  build_master(in, s, /*extra_vars=*/0);
  for (int f = 0; f < s.flows; ++f)
    master_.objective[static_cast<std::size_t>(f)] = 1.0;
  const LpSolution sol = cg_solve(in, s, Start::kWarmBasis);
  OptimizerResult r = unpack(sol, s);
  if (r.ok) {
    save_basis();
    r.objective_value = 0.0;
    for (double y : r.y) r.objective_value += y;
  }
  return r;
}

/// Lexicographic max-min water-filling, same algorithm as the exact tier
/// (see network_optimizer.cpp) with every LP replaced by a priced master.
/// Does not touch the carried warm basis: when this runs as the
/// Frank-Wolfe starting point, the basis saved from the previous round's
/// final FW oracle must survive to warm-start this round's first oracle.
OptimizerResult ColumnGenOptimizer::solve_max_min(const ColumnGenInput& in,
                                                  const Shape& s) {
  std::vector<bool> fixed(static_cast<std::size_t>(s.flows), false);
  std::vector<double> level(static_cast<std::size_t>(s.flows), 0.0);

  for (int round = 0; round < s.flows; ++round) {
    // Maximize t with y_f >= t for unfixed flows, y_f == level for fixed.
    build_master(in, s, /*extra_vars=*/1);
    const int t_var = s.flows + columns_.count();
    master_.objective[static_cast<std::size_t>(t_var)] = 1.0;
    for (int f = 0; f < s.flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) {
        double* row = master_.add_row(Relation::kEq,
                                      level[static_cast<std::size_t>(f)]);
        row[f] = 1.0;
      } else {
        double* row = master_.add_row(Relation::kGe, 0.0);
        row[f] = 1.0;
        row[t_var] = -1.0;
      }
    }
    const LpSolution sol = cg_solve(in, s, Start::kCold);
    if (sol.status != LpStatus::kOptimal) break;
    // Columns admitted mid-solve append after t_var, so its index from
    // build time stays valid against the grown solution vector.
    const double t = sol.x[static_cast<std::size_t>(t_var)];

    // Find which unfixed flows are actually capped at t (same push-loop
    // and warm-restart structure as the exact tier).
    bool progressed = false;
    bool push_stale = true;
    int prev_obj_flow = -1;
    for (int f = 0; f < s.flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) continue;
      if (push_stale) {
        build_master(in, s, /*extra_vars=*/0);
        for (int g = 0; g < s.flows; ++g) {
          if (fixed[static_cast<std::size_t>(g)]) {
            double* row = master_.add_row(
                Relation::kEq, level[static_cast<std::size_t>(g)]);
            row[g] = 1.0;
          } else {
            double* row = master_.add_row(Relation::kGe, t);
            row[g] = 1.0;
          }
        }
        prev_obj_flow = -1;
      }
      if (prev_obj_flow >= 0)
        master_.objective[static_cast<std::size_t>(prev_obj_flow)] = 0.0;
      master_.objective[static_cast<std::size_t>(f)] = 1.0;
      prev_obj_flow = f;
      const LpSolution up = cg_solve(
          in, s, push_stale ? Start::kCold : Start::kResolveObjective);
      push_stale = false;
      const double reach =
          up.status == LpStatus::kOptimal ? up.objective : t;
      if (reach <= t + 1e-7) {
        fixed[static_cast<std::size_t>(f)] = true;
        level[static_cast<std::size_t>(f)] = t;
        progressed = true;
        push_stale = true;  // the next push sees a new Eq row
      }
    }
    if (!progressed) {
      // Numerical corner: freeze everything at t.
      for (int f = 0; f < s.flows; ++f) {
        if (!fixed[static_cast<std::size_t>(f)]) {
          fixed[static_cast<std::size_t>(f)] = true;
          level[static_cast<std::size_t>(f)] = t;
        }
      }
    }
    if (std::all_of(fixed.begin(), fixed.end(), [](bool b) { return b; }))
      break;
  }

  // Final solve with all levels pinned to recover alpha weights.
  build_master(in, s, /*extra_vars=*/0);
  for (int f = 0; f < s.flows; ++f) {
    double* row = master_.add_row(
        Relation::kGe, level[static_cast<std::size_t>(f)] * (1.0 - 1e-9));
    row[f] = 1.0;
  }
  const LpSolution sol = cg_solve(in, s, Start::kCold);
  OptimizerResult r = unpack(sol, s);
  if (r.ok) {
    for (int f = 0; f < s.flows; ++f)
      r.y[static_cast<std::size_t>(f)] =
          level[static_cast<std::size_t>(f)] * s.scale;
    r.objective_value = *std::min_element(r.y.begin(), r.y.end());
  }
  return r;
}

/// Frank-Wolfe for the strictly concave alpha-fair objectives, same
/// trajectory as the exact tier (max-min start, gradient LP oracle,
/// golden-section line search) with the oracle priced instead of full-K.
/// The iterate z grows whenever the oracle admits a column (the new
/// component starts at weight 0, which changes nothing retroactively).
OptimizerResult ColumnGenOptimizer::solve_alpha_fair(const ColumnGenInput& in,
                                                     const Shape& s,
                                                     double alpha,
                                                     int iterations,
                                                     double tolerance) {
  const AlphaFairUtility util(alpha, 1e-6);

  // Interior-ish start: the max-min point keeps every flow positive.
  OptimizerResult start = solve_max_min(in, s);
  if (!start.ok) return start;

  std::vector<double> z(
      static_cast<std::size_t>(s.flows + columns_.count()), 0.0);
  for (int f = 0; f < s.flows; ++f)
    z[static_cast<std::size_t>(f)] =
        std::max(start.y[static_cast<std::size_t>(f)] / s.scale, 1e-6);
  for (std::size_t k = 0; k < start.alpha_weights.size(); ++k)
    z[static_cast<std::size_t>(s.flows) + k] = start.alpha_weights[k];

  const auto objective = [&](const std::vector<double>& v) {
    double acc = 0.0;
    for (int f = 0; f < s.flows; ++f)
      acc += util.value(v[static_cast<std::size_t>(f)]);
    return acc;
  };

  build_master(in, s, /*extra_vars=*/0);
  OptimizerResult result;
  LpSolution sol;
  int iter = 0;
  for (; iter < iterations; ++iter) {
    // Linear oracle at the current gradient. The first master of the
    // solve tries the basis carried from the previous round's final
    // oracle (same topology entry, drifted capacities); later iterations
    // warm-restart off the previous optimum as the exact tier does.
    master_.objective.assign(static_cast<std::size_t>(master_.num_vars),
                             0.0);
    for (int f = 0; f < s.flows; ++f)
      master_.objective[static_cast<std::size_t>(f)] =
          util.gradient(z[static_cast<std::size_t>(f)]);
    sol = cg_solve(in, s,
                   iter == 0 ? Start::kWarmBasis : Start::kResolveObjective);
    if (sol.status != LpStatus::kOptimal) break;
    if (z.size() < sol.x.size()) z.resize(sol.x.size(), 0.0);

    // FW gap (scaled): grad . (v - z).
    double gap = 0.0;
    for (int f = 0; f < s.flows; ++f)
      gap += master_.objective[static_cast<std::size_t>(f)] *
             (sol.x[static_cast<std::size_t>(f)] -
              z[static_cast<std::size_t>(f)]);
    if (gap <= tolerance * (std::abs(objective(z)) + 1.0)) break;

    // Golden-section line search on gamma in [0, 1].
    const auto blend_obj = [&](double gamma) {
      double acc = 0.0;
      for (int f = 0; f < s.flows; ++f) {
        const double y = (1.0 - gamma) * z[static_cast<std::size_t>(f)] +
                         gamma * sol.x[static_cast<std::size_t>(f)];
        acc += util.value(y);
      }
      return acc;
    };
    double lo = 0.0, hi = 1.0;
    constexpr double kGolden = 0.3819660112501051;
    double m1 = lo + kGolden * (hi - lo), m2 = hi - kGolden * (hi - lo);
    double f1 = blend_obj(m1), f2 = blend_obj(m2);
    for (int it = 0; it < 40; ++it) {
      if (f1 < f2) {
        lo = m1;
        m1 = m2;
        f1 = f2;
        m2 = hi - kGolden * (hi - lo);
        f2 = blend_obj(m2);
      } else {
        hi = m2;
        m2 = m1;
        f2 = f1;
        m1 = lo + kGolden * (hi - lo);
        f1 = blend_obj(m1);
      }
    }
    const double gamma = 0.5 * (lo + hi);
    for (std::size_t j = 0; j < z.size(); ++j)
      z[j] = (1.0 - gamma) * z[j] + gamma * sol.x[j];
  }

  if (sol.status == LpStatus::kOptimal) save_basis();
  result.ok = true;
  result.iterations = iter;
  result.y.assign(static_cast<std::size_t>(s.flows), 0.0);
  result.alpha_weights.assign(static_cast<std::size_t>(columns_.count()),
                              0.0);
  for (int f = 0; f < s.flows; ++f)
    result.y[static_cast<std::size_t>(f)] =
        z[static_cast<std::size_t>(f)] * s.scale;
  for (int k = 0; k < columns_.count(); ++k) {
    const std::size_t j = static_cast<std::size_t>(s.flows + k);
    if (j < z.size()) result.alpha_weights[static_cast<std::size_t>(k)] = z[j];
  }
  result.objective_value = objective(z);
  return result;
}

OptimizerResult ColumnGenOptimizer::begin_fw_round(
    const ColumnGenInput& input) {
  if (input.conflicts == nullptr)
    throw std::invalid_argument("ColumnGenInput: conflicts is required");
  Shape s;
  s.links = input.routing.rows();
  s.flows = input.routing.cols();
  fw_last_ok_ = false;
  OptimizerResult empty;
  if (s.flows == 0 || s.links == 0) return empty;
  if (input.conflicts->size() != s.links)
    throw std::invalid_argument("conflict graph size != link count");
  if (static_cast<int>(input.capacities.size()) != s.links)
    throw std::invalid_argument("capacities size != link count");
  double max_cap = 0.0;
  for (double c : input.capacities) max_cap = std::max(max_cap, c);
  s.scale = input.scale_override > 0.0 ? input.scale_override
                                       : (max_cap > 0.0 ? max_cap : 1.0);

  ++stats_.solves;
  solve_pricing_rounds_ = 0;
  seed_columns(input);

  // The interior-ish starting point the in-process FW uses, then the FW
  // master the oracle iterations price against.
  OptimizerResult start = solve_max_min(input, s);
  fw_shape_ = s;
  if (!start.ok) return start;
  build_master(input, s, /*extra_vars=*/0);
  start.columns_used = columns_.count();
  start.pricing_rounds = solve_pricing_rounds_;
  return start;
}

LpSolution ColumnGenOptimizer::fw_oracle(const ColumnGenInput& input,
                                         const std::vector<double>& grad,
                                         bool first) {
  master_.objective.assign(static_cast<std::size_t>(master_.num_vars), 0.0);
  for (int f = 0; f < fw_shape_.flows; ++f)
    master_.objective[static_cast<std::size_t>(f)] =
        grad[static_cast<std::size_t>(f)];
  const LpSolution sol = cg_solve(
      input, fw_shape_, first ? Start::kWarmBasis : Start::kResolveObjective);
  fw_last_ok_ = sol.status == LpStatus::kOptimal;
  return sol;
}

void ColumnGenOptimizer::end_fw_round() {
  if (fw_last_ok_) save_basis();
  fw_last_ok_ = false;
}

OptimizerResult ColumnGenOptimizer::solve(const ColumnGenInput& input) {
  if (input.conflicts == nullptr)
    throw std::invalid_argument("ColumnGenInput: conflicts is required");
  Shape s;
  s.links = input.routing.rows();
  s.flows = input.routing.cols();
  OptimizerResult empty;
  if (s.flows == 0 || s.links == 0) return empty;
  if (input.conflicts->size() != s.links)
    throw std::invalid_argument("conflict graph size != link count");
  if (static_cast<int>(input.capacities.size()) != s.links)
    throw std::invalid_argument("capacities size != link count");
  // Same normalization as the exact tier: every link appears in some
  // maximal independent set, so the extreme-point matrix's max entry IS
  // the max capacity — the normalized masters of both tiers agree.
  double max_cap = 0.0;
  for (double c : input.capacities) max_cap = std::max(max_cap, c);
  s.scale = input.scale_override > 0.0 ? input.scale_override
                                       : (max_cap > 0.0 ? max_cap : 1.0);

  ++stats_.solves;
  solve_pricing_rounds_ = 0;
  const std::uint64_t warm_before =
      stats_.warm_starts - stats_.warm_start_fallbacks;
  const std::uint64_t admitted_before = stats_.columns_admitted;
  ObsSpan pricing_span(obs_, ObsStage::kPricing);
  seed_columns(input);

  OptimizerResult r;
  switch (cfg_.objective) {
    case Objective::kMaxThroughput:
      r = solve_max_throughput(input, s);
      break;
    case Objective::kMaxMin:
      r = solve_max_min(input, s);
      break;
    case Objective::kProportionalFair:
      r = solve_alpha_fair(input, s, 1.0, cfg_.fw_iterations,
                           cfg_.tolerance);
      break;
    case Objective::kAlphaFair:
      r = solve_alpha_fair(input, s, cfg_.alpha, cfg_.fw_iterations,
                           cfg_.tolerance);
      break;
  }
  r.columns_used = columns_.count();
  r.pricing_rounds = solve_pricing_rounds_;
  // kWarmStart only when some master actually started from the carried
  // basis; an offered basis the solver rejected was a cold start.
  pricing_span.code(
      stats_.warm_starts - stats_.warm_start_fallbacks > warm_before
          ? ObsCode::kWarmStart
          : ObsCode::kColdStart);
  pricing_span.payload(static_cast<std::uint64_t>(solve_pricing_rounds_),
                       stats_.columns_admitted - admitted_before);
  return r;
}

}  // namespace meshopt
