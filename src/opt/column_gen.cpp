#include "opt/column_gen.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/obs.h"

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

bool ColumnGenOptimizer::working_set_complete(const ConflictGraph& graph) {
  // On a complete conflict graph the maximal independent sets are exactly
  // the single links. Decided from the graph and the columns themselves,
  // since a caller may reuse the optimizer on another graph without reset().
  const int links = graph.size();
  if (columns_.count() != links ||
      graph.edge_count() != links * (links - 1) / 2)
    return false;
  const int words = columns_.row_words();
  cand_bits_.assign(static_cast<std::size_t>(words), 0);
  for (int k = 0; k < links; ++k) {
    const std::uint64_t* row = columns_.row(k);
    int members = 0;
    for (int wd = 0; wd < words; ++wd) {
      members += std::popcount(row[wd]);
      cand_bits_[static_cast<std::size_t>(wd)] |= row[wd];
    }
    if (members != 1) return false;
  }
  int covered = 0;
  for (const std::uint64_t w : cand_bits_) covered += std::popcount(w);
  return covered == links;
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
  master_.coeffs(s.links, col) = 1.0;  // the convexity row
  return col;
}

bool ColumnGenOptimizer::price_one(const ColumnGenInput& in, const Shape& s) {
  ++stats_.pricing_rounds;
  ++solve_pricing_rounds_;
  lp_.duals(duals_);
  // Reduced cost of a candidate column w (zero objective coefficient):
  //   d_w = sum_{l in w} c_l/scale * lambda_l - mu,
  // with lambda the link-row duals (>= 0 for binding <= rows; clamp fp
  // dust) and mu the dual of the convexity row after them. Maximizing
  // sum lambda_l c_l over independent sets is exactly MWIS on the
  // conflict graph, and the search is exact, so d_best <= pricing_tol
  // certifies optimality over the FULL rate region — every one of the K
  // unseen columns is covered.
  const double mu = duals_[static_cast<std::size_t>(s.links)];
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

const LpSolution& ColumnGenOptimizer::cg_solve(const ColumnGenInput& in,
                                               const Shape& s, LpStart start) {
  const LpSolution* sol = nullptr;
  switch (start) {
    case LpStart::kCarried:
      if (!warm_basis_.empty() && warm_vars_ == master_.num_vars &&
          warm_rows_ == master_.num_constraints()) {
        ++stats_.warm_starts;
        sol = &lp_.solve_with_basis(master_, warm_basis_);
        if (!lp_.hint_used()) ++stats_.warm_start_fallbacks;
      } else {
        sol = &lp_.solve(master_);
      }
      break;
    case LpStart::kCold:
      sol = &lp_.solve(master_);
      break;
    case LpStart::kResolveObjective:
      sol = &lp_.resolve_objective(master_);
      break;
  }
  ++stats_.master_solves;
  // A complete working set already holds every column the oracle could
  // return, so the master is optimal over the full region as solved.
  if (complete_ && sol->status == LpStatus::kOptimal)
    ++stats_.certified_masters;
  int rounds = 0;
  while (!complete_ && sol->status == LpStatus::kOptimal &&
         rounds < cg_.max_pricing_rounds) {
    ++rounds;
    if (!price_one(in, s)) break;
    sol = &lp_.resolve_with_added_columns(master_);
    ++stats_.master_solves;
  }
  stats_.pivots = lp_.pivots();
  return *sol;
}

LpProblem& ColumnGenOptimizer::Region::build(int extra_vars) {
  // The region rows over the working set, in the exact tier's row order,
  // so dual indices line up with link indices.
  const MisRowSet& columns = cg_.columns_;
  refill(in_.routing, columns.count(), extra_vars);
  const double inv_scale = 1.0 / scale();
  // Column k holds -capacity / scale in the rows of its set link bits.
  for (int k = 0; k < columns.count(); ++k) {
    const std::uint64_t* bits = columns.row(k);
    for (int w = 0; w < columns.row_words(); ++w) {
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
        const int l = 64 * w + std::countr_zero(b);
        lp_.coeffs(l, flows() + k) =
            -in_.capacities[static_cast<std::size_t>(l)] * inv_scale;
      }
    }
  }
  return lp_;
}

const LpSolution& ColumnGenOptimizer::Region::solve(LpStart start) {
  return cg_.cg_solve(in_, s_, start);
}

void ColumnGenOptimizer::Region::carry() {
  cg_.warm_basis_ = cg_.lp_.basis();
  cg_.warm_vars_ = lp_.num_vars;
  cg_.warm_rows_ = lp_.num_constraints();
}

RateRegionLp* ColumnGenOptimizer::region(const ColumnGenInput& input) {
  if (input.conflicts == nullptr)
    throw std::invalid_argument("ColumnGenInput: conflicts is required");
  Shape s;
  s.links = input.routing.rows();
  s.flows = input.routing.cols();
  if (s.flows == 0 || s.links == 0) return nullptr;
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
  seed_columns(input);
  complete_ = working_set_complete(*input.conflicts);
  return &region_.emplace(*this, input, s);
}

OptimizerResult ColumnGenOptimizer::solve(const ColumnGenInput& input) {
  const std::uint64_t warm_before =
      stats_.warm_starts - stats_.warm_start_fallbacks;
  const std::uint64_t admitted_before = stats_.columns_admitted;
  RateRegionLp* r = region(input);
  if (r == nullptr) return OptimizerResult{};
  ObsSpan pricing_span(obs_, ObsStage::kPricing);
  OptimizerResult result = optimize_region(*r, cfg_);
  result.columns_used = columns_.count();
  result.pricing_rounds = solve_pricing_rounds_;
  // kWarmStart only when some master actually started from the carried
  // basis; an offered basis the solver rejected was a cold start.
  pricing_span.code(
      stats_.warm_starts - stats_.warm_start_fallbacks > warm_before
          ? ObsCode::kWarmStart
          : ObsCode::kColdStart);
  pricing_span.payload(static_cast<std::uint64_t>(solve_pricing_rounds_),
                       stats_.columns_admitted - admitted_before);
  return result;
}

}  // namespace meshopt
