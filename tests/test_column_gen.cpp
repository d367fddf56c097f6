#include "opt/column_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "model/conflict_graph.h"
#include "model/feasibility.h"
#include "opt/network_optimizer.h"
#include "opt/simplex.h"
#include "util/rng.h"

namespace meshopt {
namespace {

ConflictGraph random_graph(int n, double p, RngStream& rng) {
  ConflictGraph g(n);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (rng.bernoulli(p)) g.add_conflict(a, b);
  return g;
}

bool is_independent(const ConflictGraph& g, const std::vector<int>& links) {
  for (std::size_t i = 0; i < links.size(); ++i)
    for (std::size_t j = i + 1; j < links.size(); ++j)
      if (g.conflicts(links[i], links[j])) return false;
  return true;
}

bool is_maximal(const ConflictGraph& g, const std::vector<int>& links) {
  if (!is_independent(g, links)) return false;
  std::set<int> members(links.begin(), links.end());
  for (int v = 0; v < g.size(); ++v) {
    if (members.count(v) != 0) continue;
    bool blocked = false;
    for (int m : links)
      if (g.conflicts(v, m)) blocked = true;
    if (!blocked) return false;  // v extends the set: not maximal
  }
  return true;
}

std::vector<int> bits_to_links(const std::vector<std::uint64_t>& bits,
                               int n) {
  std::vector<int> links;
  for (int v = 0; v < n; ++v)
    if ((bits[static_cast<std::size_t>(v >> 6)] >> (v & 63) & 1) != 0)
      links.push_back(v);
  return links;
}

/// Brute-force MWIS over all 2^n subsets (n <= ~16).
double brute_force_mwis(const ConflictGraph& g,
                        const std::vector<double>& w) {
  const int n = g.size();
  double best = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    double acc = 0.0;
    bool ok = true;
    for (int a = 0; a < n && ok; ++a) {
      if ((mask >> a & 1) == 0) continue;
      acc += w[static_cast<std::size_t>(a)];
      for (int b = a + 1; b < n && ok; ++b)
        if ((mask >> b & 1) != 0 && g.conflicts(a, b)) ok = false;
    }
    if (ok) best = std::max(best, acc);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Pricing oracle: exact MWIS search
// ---------------------------------------------------------------------------

TEST(MaxWeightIndependentSet, MatchesBruteForceOnRandomGraphs) {
  RngStream rng(17, "mwis-brute");
  for (int trial = 0; trial < 60; ++trial) {
    const int n = rng.uniform_int(4, 14);
    const double p = rng.uniform(0.1, 0.9);
    ConflictGraph g = random_graph(n, p, rng);
    std::vector<double> w(static_cast<std::size_t>(n));
    for (double& x : w) x = rng.uniform(-0.5, 2.0);  // some negatives/zeros

    std::vector<std::uint64_t> bits;
    const double got = max_weight_independent_set(g, w, bits);
    const double want = brute_force_mwis(g, w);
    EXPECT_NEAR(got, want, 1e-12) << "trial " << trial;

    // The returned set is independent and its weight matches the claim.
    const std::vector<int> links = bits_to_links(bits, n);
    EXPECT_TRUE(is_independent(g, links));
    double sum = 0.0;
    for (int v : links) sum += w[static_cast<std::size_t>(v)];
    EXPECT_NEAR(sum, got, 1e-12);
  }
}

TEST(MaxWeightIndependentSet, DeterministicAcrossRepeatedCalls) {
  RngStream rng(23, "mwis-det");
  ConflictGraph g = random_graph(48, 0.4, rng);
  std::vector<double> w(48);
  for (double& x : w) x = rng.uniform(0.0, 1.0);
  std::vector<std::uint64_t> a, b;
  const double wa = max_weight_independent_set(g, w, a);
  const double wb = max_weight_independent_set(g, w, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(wa, wb);
}

TEST(MaxWeightIndependentSet, NodeCapTruncatesButStillReturnsASet) {
  RngStream rng(29, "mwis-cap");
  ConflictGraph g = random_graph(40, 0.3, rng);
  std::vector<double> w(40);
  for (double& x : w) x = rng.uniform(0.5, 1.0);
  std::vector<std::uint64_t> bits;
  std::uint64_t nodes = 0;
  bool truncated = false;
  const double got =
      max_weight_independent_set(g, w, bits, /*node_cap=*/8, &nodes, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(is_independent(g, bits_to_links(bits, 40)));
  EXPECT_GE(got, 0.0);
}

/// The oracle as it stood before its scratch became per-thread and its
/// per-node candidate vectors one flat per-depth buffer, kept verbatim as
/// the reference for MwisDifferential.
struct ReferenceMwisSearch {
  const ConflictGraph* g = nullptr;
  const double* w = nullptr;
  int n = 0;
  int words = 0;
  const int* order = nullptr;
  std::uint64_t node_cap = 0;
  std::uint64_t nodes = 0;
  bool truncated = false;
  double best_w = 0.0;
  std::vector<std::uint64_t> cur;
  std::vector<std::uint64_t> best;

  void search(std::vector<std::uint64_t>& cand, double cur_w, int from) {
    if (truncated) return;
    if (++nodes > node_cap) {
      truncated = true;
      return;
    }
    double bound = cur_w;
    for (int wd = 0; wd < words; ++wd) {
      std::uint64_t m = cand[static_cast<std::size_t>(wd)];
      while (m != 0) {
        bound += w[wd * 64 + std::countr_zero(m)];
        m &= m - 1;
      }
    }
    if (bound <= best_w + 1e-15) return;
    std::vector<std::uint64_t> sub(static_cast<std::size_t>(words));
    for (int oi = from; oi < n; ++oi) {
      const int v = order[oi];
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if ((cand[static_cast<std::size_t>(v >> 6)] & bit) == 0) continue;
      // Include v: candidates shrink to v's non-neighbors.
      cur[static_cast<std::size_t>(v >> 6)] |= bit;
      const double nw = cur_w + w[v];
      if (nw > best_w) {
        best_w = nw;
        best = cur;
      }
      const std::uint64_t* adj = g->row(v);
      for (int wd = 0; wd < words; ++wd)
        sub[static_cast<std::size_t>(wd)] =
            cand[static_cast<std::size_t>(wd)] &
            ~adj[static_cast<std::size_t>(wd)];
      sub[static_cast<std::size_t>(v >> 6)] &= ~bit;
      search(sub, nw, oi + 1);
      cur[static_cast<std::size_t>(v >> 6)] &= ~bit;
      if (truncated) return;
      // Exclude v and keep scanning; the bound tightens by w[v].
      cand[static_cast<std::size_t>(v >> 6)] &= ~bit;
      bound -= w[v];
      if (bound <= best_w + 1e-15) return;
    }
  }
};

double reference_mwis(const ConflictGraph& graph,
                      const std::vector<double>& weights,
                      std::vector<std::uint64_t>& bits,
                      std::uint64_t node_cap, std::uint64_t* nodes_visited,
                      bool* truncated) {
  const int n = graph.size();
  const int words = graph.row_words();
  bits.assign(static_cast<std::size_t>(words), 0);
  if (nodes_visited != nullptr) *nodes_visited = 0;
  if (truncated != nullptr) *truncated = false;
  if (n == 0) return 0.0;

  ReferenceMwisSearch s;
  s.g = &graph;
  s.w = weights.data();
  s.n = n;
  s.words = words;
  s.node_cap = node_cap;
  s.cur.assign(static_cast<std::size_t>(words), 0);
  s.best.assign(static_cast<std::size_t>(words), 0);

  std::vector<int> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&weights](int a, int b) {
    const double wa = weights[static_cast<std::size_t>(a)];
    const double wb = weights[static_cast<std::size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });
  s.order = order.data();

  std::vector<std::uint64_t> cand(static_cast<std::size_t>(words), 0);
  for (int v = 0; v < n; ++v) {
    if (weights[static_cast<std::size_t>(v)] > 0.0)
      cand[static_cast<std::size_t>(v >> 6)] |= std::uint64_t{1} << (v & 63);
  }
  s.search(cand, 0.0, 0);

  bits = s.best;
  if (nodes_visited != nullptr) *nodes_visited = s.nodes;
  if (truncated != nullptr) *truncated = s.truncated;
  return s.best_w;
}

/// Random graphs over one to three bitset words, with weights drawn from a
/// pool that mixes zeros, negatives and exact ties with continuous values,
/// and node caps small enough that some searches truncate: the oracle
/// must return the reference's set, weight bits, node count and flag.
TEST(MwisDifferential, MatchesReferenceSearchBitForBit) {
  RngStream rng(59, "mwis-differential");
  std::vector<std::uint64_t> got_bits;
  std::vector<std::uint64_t> want_bits;
  int truncations = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const int n = rng.uniform_int(1, 130);
    // Sparse big graphs have exponentially many sets; keep those dense
    // enough (or capped) that the search stays a few thousand nodes.
    const double p = n > 40 ? rng.uniform(0.3, 0.9) : rng.uniform(0.0, 0.9);
    const ConflictGraph g = random_graph(n, p, rng);
    const double tie_pool[] = {0.0, -0.0, -1.0, 0.25, 0.5, 1.0, 1.0 / 3.0};
    std::vector<double> w(static_cast<std::size_t>(n));
    const int mode = rng.uniform_int(0, 2);
    for (double& x : w) {
      if (mode == 0 || rng.bernoulli(0.3))
        x = tie_pool[rng.uniform_int(0, 6)];
      else
        x = rng.uniform(-0.5, 2.0);
    }
    const std::uint64_t cap = rng.bernoulli(0.2)
                                  ? static_cast<std::uint64_t>(
                                        rng.uniform_int(1, 40))
                                  : std::uint64_t{1} << 14;
    std::uint64_t got_nodes = 0;
    std::uint64_t want_nodes = 0;
    bool got_trunc = false;
    bool want_trunc = false;
    const double got = max_weight_independent_set(g, w, got_bits, cap,
                                                  &got_nodes, &got_trunc);
    const double want =
        reference_mwis(g, w, want_bits, cap, &want_nodes, &want_trunc);
    ASSERT_EQ(got_bits, want_bits) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "trial " << trial;
    ASSERT_EQ(got_nodes, want_nodes) << "trial " << trial;
    ASSERT_EQ(got_trunc, want_trunc) << "trial " << trial;
    truncations += want_trunc ? 1 : 0;
  }
  // The small caps did cut searches short, so truncation was compared too.
  EXPECT_GT(truncations, 100);
}

TEST(ExtendToMaximal, ProducesMaximalSupersets) {
  RngStream rng(31, "extend");
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.uniform_int(3, 30);
    ConflictGraph g = random_graph(n, rng.uniform(0.1, 0.8), rng);
    // Start from a random independent set (grown greedily over a random
    // candidate order to keep the test independent of the implementation).
    std::vector<std::uint64_t> bits(static_cast<std::size_t>(g.row_words()),
                                    0);
    const int v0 = rng.uniform_int(0, n - 1);
    bits[static_cast<std::size_t>(v0 >> 6)] |= std::uint64_t{1} << (v0 & 63);
    const std::vector<int> before = bits_to_links(bits, n);
    extend_to_maximal_independent_set(g, bits);
    const std::vector<int> after = bits_to_links(bits, n);
    EXPECT_TRUE(is_maximal(g, after)) << "trial " << trial;
    EXPECT_TRUE(std::includes(after.begin(), after.end(), before.begin(),
                              before.end()));
  }
}

// ---------------------------------------------------------------------------
// Pricing-oracle admissions: property/fuzz over random conflict graphs
// ---------------------------------------------------------------------------

struct FuzzInstance {
  ConflictGraph graph = ConflictGraph(0);
  ColumnGenInput in;
};

FuzzInstance random_instance(RngStream& rng, int links, int flows) {
  FuzzInstance inst;
  inst.graph = random_graph(links, rng.uniform(0.2, 0.7), rng);
  inst.in.routing = DenseMatrix(links, flows, 0.0);
  for (int f = 0; f < flows; ++f) {
    // Each flow crosses a random contiguous span of links.
    const int lo = rng.uniform_int(0, links - 1);
    const int hi = rng.uniform_int(lo, links - 1);
    for (int l = lo; l <= hi; ++l) inst.in.routing(l, f) = 1.0;
  }
  inst.in.capacities.resize(static_cast<std::size_t>(links));
  for (double& c : inst.in.capacities) c = rng.uniform(0.5e6, 5e6);
  return inst;
}

TEST(ColumnGenPricing, AdmissionsAreGenuineMaximalSetsWithPositiveReducedCost) {
  RngStream rng(41, "pricing-fuzz");
  const Objective objectives[] = {Objective::kMaxThroughput,
                                  Objective::kProportionalFair,
                                  Objective::kMaxMin};
  for (int trial = 0; trial < 15; ++trial) {
    FuzzInstance inst =
        random_instance(rng, rng.uniform_int(10, 28), rng.uniform_int(1, 4));
    inst.in.conflicts = &inst.graph;
    for (Objective obj : objectives) {
      OptimizerConfig cfg;
      cfg.objective = obj;
      ColumnGenOptimizer cg(cfg);
      // Track per-solve admissions: every admitted column must be a new,
      // genuine, maximal independent set with positive reduced cost —
      // and no column may be admitted twice (termination).
      std::set<std::vector<int>> admitted;
      cg.on_admit = [&](const ColumnAdmission& a) {
        EXPECT_GT(a.reduced_cost, 0.0);
        EXPECT_TRUE(is_maximal(inst.graph, a.links));
        EXPECT_TRUE(admitted.insert(a.links).second)
            << "column admitted twice in one solve";
        EXPECT_GE(a.pricing_round, 1);
      };
      const OptimizerResult r = cg.solve(inst.in);
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(cg.stats().oracle_truncated, 0u);
      // Working-set bookkeeping is consistent.
      EXPECT_EQ(r.columns_used, cg.columns().count());
      EXPECT_GE(r.pricing_rounds, 0);
    }
  }
}

TEST(ColumnGenPricing, WorkingSetColumnsAreDistinctMaximalSets) {
  RngStream rng(43, "workingset");
  FuzzInstance inst = random_instance(rng, 24, 3);
  inst.in.conflicts = &inst.graph;
  OptimizerConfig cfg;
  cfg.objective = Objective::kProportionalFair;
  ColumnGenOptimizer cg(cfg);
  ASSERT_TRUE(cg.solve(inst.in).ok);
  const MisRowSet& cols = cg.columns();
  std::set<std::vector<int>> seen;
  for (int k = 0; k < cols.count(); ++k) {
    std::vector<std::uint64_t> bits(cols.row(k),
                                    cols.row(k) + cols.row_words());
    const std::vector<int> links = bits_to_links(bits, inst.graph.size());
    EXPECT_TRUE(is_maximal(inst.graph, links)) << "column " << k;
    EXPECT_TRUE(seen.insert(links).second) << "duplicate working column";
  }
}

// ---------------------------------------------------------------------------
// Fast tier vs exact optimizer at the opt/ layer
// ---------------------------------------------------------------------------

TEST(ColumnGenOptimizer, ObjectiveMatchesExactSolverOnRandomInstances) {
  RngStream rng(47, "cg-vs-exact");
  for (int trial = 0; trial < 10; ++trial) {
    FuzzInstance inst =
        random_instance(rng, rng.uniform_int(8, 22), rng.uniform_int(1, 3));
    inst.in.conflicts = &inst.graph;

    OptimizerInput exact_in;
    exact_in.routing = inst.in.routing;
    fill_extreme_point_matrix(inst.in.capacities,
                              inst.graph.independent_set_rows(),
                              exact_in.extreme_points);

    const Objective objectives[] = {Objective::kMaxThroughput,
                                    Objective::kMaxMin,
                                    Objective::kProportionalFair};
    for (Objective obj : objectives) {
      OptimizerConfig cfg;
      cfg.objective = obj;
      const OptimizerResult exact = optimize_rates(exact_in, cfg);
      ColumnGenOptimizer cg(cfg);
      const OptimizerResult fast = cg.solve(inst.in);
      ASSERT_EQ(exact.ok, fast.ok) << "trial " << trial;
      if (!exact.ok) continue;
      const double tol =
          1e-6 * std::max(1.0, std::abs(exact.objective_value));
      EXPECT_NEAR(fast.objective_value, exact.objective_value, tol)
          << "trial " << trial << " objective " << static_cast<int>(obj);
      // The restricted master should finish well below full K.
      EXPECT_LE(fast.columns_used, exact_in.extreme_points.rows());
    }
  }
}

TEST(ColumnGenOptimizer, WarmSolvesStayConsistentUnderCapacityDrift) {
  RngStream rng(53, "cg-drift");
  FuzzInstance inst = random_instance(rng, 20, 3);
  inst.in.conflicts = &inst.graph;
  OptimizerConfig cfg;
  cfg.objective = Objective::kMaxThroughput;
  ColumnGenOptimizer warm(cfg);
  for (int round = 0; round < 6; ++round) {
    for (double& c : inst.in.capacities) c *= rng.uniform(0.9, 1.1);
    OptimizerInput exact_in;
    exact_in.routing = inst.in.routing;
    fill_extreme_point_matrix(inst.in.capacities,
                              inst.graph.independent_set_rows(),
                              exact_in.extreme_points);
    const OptimizerResult exact = optimize_rates(exact_in, cfg);
    const OptimizerResult fast = warm.solve(inst.in);
    ASSERT_TRUE(exact.ok && fast.ok);
    const double tol = 1e-6 * std::max(1.0, std::abs(exact.objective_value));
    EXPECT_NEAR(fast.objective_value, exact.objective_value, tol)
        << "round " << round;
  }
  // Warm state carried across rounds: the working columns, and a saved
  // basis offered to at least one master. (Here the solver rejects every
  // offer and solves cold; PlanTiers.WarmStartsCountOnlyAcceptedBases pins
  // both outcomes.)
  EXPECT_GE(warm.stats().warm_starts, 1u);
}

/// A 12-link clique with one-hop flows on links 0 and 1: its seed columns
/// are the 12 single links, which are every maximal independent set.
FuzzInstance clique_instance() {
  RngStream rng(61, "cg-clique");
  FuzzInstance inst = random_instance(rng, 12, 2);
  inst.in.routing = DenseMatrix(12, 2, 0.0);
  inst.in.routing(0, 0) = 1.0;
  inst.in.routing(1, 1) = 1.0;
  inst.graph = ConflictGraph(12);
  for (int a = 0; a < 12; ++a)
    for (int b = a + 1; b < 12; ++b) inst.graph.add_conflict(a, b);
  inst.in.conflicts = &inst.graph;
  return inst;
}

OptimizerResult exact_solve(const FuzzInstance& inst,
                            const OptimizerConfig& cfg) {
  OptimizerInput in;
  in.routing = inst.in.routing;
  fill_extreme_point_matrix(inst.in.capacities,
                            inst.graph.independent_set_rows(),
                            in.extreme_points);
  return optimize_rates(in, cfg);
}

TEST(ColumnGenOptimizer, CliqueMastersAreCertifiedWithoutPricing) {
  const FuzzInstance inst = clique_instance();
  OptimizerConfig cfg;
  cfg.objective = Objective::kProportionalFair;
  ColumnGenOptimizer cg(cfg);
  const OptimizerResult fast = cg.solve(inst.in);
  ASSERT_TRUE(fast.ok);
  EXPECT_EQ(fast.pricing_rounds, 0);
  EXPECT_EQ(cg.columns().count(), 12);
  EXPECT_GT(cg.stats().master_solves, 0u);
  EXPECT_EQ(cg.stats().certified_masters, cg.stats().master_solves);
  EXPECT_EQ(cg.stats().pricing_rounds, 0u);
  EXPECT_EQ(cg.stats().oracle_nodes, 0u);
  const OptimizerResult exact = exact_solve(inst, cfg);
  ASSERT_TRUE(exact.ok);
  EXPECT_NEAR(fast.objective_value, exact.objective_value,
              1e-6 * std::max(1.0, std::abs(exact.objective_value)));
}

/// clique_instance() with links 0 and 1 no longer conflicting: both flows
/// can then send at once, in the column {0, 1}.
FuzzInstance clique_minus_one_edge() {
  FuzzInstance inst = clique_instance();
  inst.graph = ConflictGraph(12);
  for (int a = 0; a < 12; ++a)
    for (int b = a + 1; b < 12; ++b)
      if (a != 0 || b != 1) inst.graph.add_conflict(a, b);
  inst.in.conflicts = &inst.graph;
  return inst;
}

TEST(ColumnGenOptimizer, CliqueMinusOneEdgePricesAndMatchesExact) {
  const FuzzInstance inst = clique_minus_one_edge();
  for (const Objective obj :
       {Objective::kMaxThroughput, Objective::kMaxMin,
        Objective::kProportionalFair}) {
    OptimizerConfig cfg;
    cfg.objective = obj;
    ColumnGenOptimizer cg(cfg);
    const OptimizerResult fast = cg.solve(inst.in);
    ASSERT_TRUE(fast.ok);
    EXPECT_EQ(cg.stats().certified_masters, 0u);
    EXPECT_GT(fast.pricing_rounds, 0);
    const OptimizerResult exact = exact_solve(inst, cfg);
    ASSERT_TRUE(exact.ok);
    EXPECT_NEAR(fast.objective_value, exact.objective_value,
                1e-6 * std::max(1.0, std::abs(exact.objective_value)))
        << static_cast<int>(obj);
  }
}

TEST(ColumnGenOptimizer, CertificateIsDecidedFromTheCurrentGraph) {
  // One optimizer, no reset(): the clique's 12 single-link columns carry
  // over to the thinned graph, where they miss {0, 1}. The masters there
  // must price that column in rather than reuse the clique's certificate.
  const FuzzInstance clique = clique_instance();
  const FuzzInstance thinned = clique_minus_one_edge();
  OptimizerConfig cfg;
  cfg.objective = Objective::kMaxThroughput;
  ColumnGenOptimizer cg(cfg);
  ASSERT_TRUE(cg.solve(clique.in).ok);
  const std::uint64_t certified = cg.stats().certified_masters;
  EXPECT_EQ(certified, cg.stats().master_solves);
  const OptimizerResult fast = cg.solve(thinned.in);
  ASSERT_TRUE(fast.ok);
  EXPECT_EQ(cg.stats().certified_masters, certified);
  EXPECT_EQ(cg.stats().columns_admitted, 1u);
  const OptimizerResult exact = exact_solve(thinned, cfg);
  ASSERT_TRUE(exact.ok);
  EXPECT_NEAR(fast.objective_value, exact.objective_value,
              1e-6 * std::max(1.0, std::abs(exact.objective_value)));
}

TEST(ColumnGenOptimizer, ResetDropsWarmState) {
  RngStream rng(59, "cg-reset");
  FuzzInstance inst = random_instance(rng, 16, 2);
  inst.in.conflicts = &inst.graph;
  ColumnGenOptimizer cg;
  ASSERT_TRUE(cg.solve(inst.in).ok);
  EXPECT_GT(cg.columns().count(), 0);
  cg.reset();
  EXPECT_EQ(cg.columns().count(), 0);
  ASSERT_TRUE(cg.solve(inst.in).ok);  // re-seeds and re-prices cleanly
}

// ---------------------------------------------------------------------------
// LpSolver column-add / warm-basis / duals hooks
// ---------------------------------------------------------------------------

LpProblem random_lp(RngStream& rng, int vars, int rows) {
  LpProblem lp;
  lp.num_vars = vars;
  lp.objective.resize(static_cast<std::size_t>(vars));
  for (double& c : lp.objective) c = rng.uniform(0.1, 2.0);
  for (int i = 0; i < rows; ++i) {
    double* row = lp.add_row(Relation::kLe, rng.uniform(1.0, 5.0));
    for (int j = 0; j < vars; ++j) row[j] = rng.uniform(0.0, 1.0);
  }
  return lp;
}

TEST(LpSolverHooks, ResolveWithAddedColumnsMatchesColdSolve) {
  RngStream rng(61, "lp-addcols");
  for (int trial = 0; trial < 30; ++trial) {
    LpProblem lp = random_lp(rng, rng.uniform_int(2, 6), rng.uniform_int(2, 5));
    LpSolver solver;
    ASSERT_EQ(solver.solve(lp).status, LpStatus::kOptimal);

    const int added = rng.uniform_int(1, 3);
    const int old_vars = lp.num_vars;
    lp.append_vars(added);
    for (int j = old_vars; j < lp.num_vars; ++j) {
      lp.objective[static_cast<std::size_t>(j)] = rng.uniform(0.1, 3.0);
      for (int i = 0; i < lp.num_constraints(); ++i)
        lp.coeffs(i, j) = rng.uniform(0.0, 1.0);
    }
    const LpSolution warm = solver.resolve_with_added_columns(lp);
    const LpSolution cold = solve_lp(lp);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    ASSERT_EQ(warm.status, LpStatus::kOptimal);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * (1.0 + std::abs(cold.objective)))
        << "trial " << trial;
    // The warm solution is feasible for the widened problem.
    for (int i = 0; i < lp.num_constraints(); ++i) {
      double lhs = 0.0;
      for (int j = 0; j < lp.num_vars; ++j)
        lhs += lp.coeffs(i, j) * warm.x[static_cast<std::size_t>(j)];
      EXPECT_LE(lhs, lp.rhs[static_cast<std::size_t>(i)] + 1e-7);
    }
  }
}

TEST(LpSolverHooks, ResolveWithAddedColumnsCanGrowRepeatedly) {
  // The column-generation pattern: append one column, re-solve, repeat.
  RngStream rng(67, "lp-repeat");
  LpProblem lp = random_lp(rng, 3, 4);
  LpSolver solver;
  ASSERT_EQ(solver.solve(lp).status, LpStatus::kOptimal);
  for (int round = 0; round < 5; ++round) {
    lp.append_vars(1);
    const int j = lp.num_vars - 1;
    lp.objective[static_cast<std::size_t>(j)] = rng.uniform(0.5, 3.0);
    for (int i = 0; i < lp.num_constraints(); ++i)
      lp.coeffs(i, j) = rng.uniform(0.0, 1.0);
    const LpSolution warm = solver.resolve_with_added_columns(lp);
    const LpSolution cold = solve_lp(lp);
    ASSERT_EQ(warm.status, LpStatus::kOptimal);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-9 * (1.0 + std::abs(cold.objective)))
        << "round " << round;
  }
}

TEST(LpSolverHooks, SolveWithBasisMatchesColdUnderDrift) {
  RngStream rng(71, "lp-basis");
  for (int trial = 0; trial < 30; ++trial) {
    LpProblem lp = random_lp(rng, rng.uniform_int(2, 6), rng.uniform_int(2, 5));
    LpSolver solver;
    ASSERT_EQ(solver.solve(lp).status, LpStatus::kOptimal);
    const std::vector<int> hint = solver.basis();

    // Drift every coefficient slightly (same shape, new numbers).
    for (int i = 0; i < lp.num_constraints(); ++i)
      for (int j = 0; j < lp.num_vars; ++j)
        lp.coeffs(i, j) *= rng.uniform(0.95, 1.05);
    for (double& b : lp.rhs) b *= rng.uniform(0.95, 1.05);

    LpSolver warm_solver;
    const LpSolution warm = warm_solver.solve_with_basis(lp, hint);
    const LpSolution cold = solve_lp(lp);
    ASSERT_EQ(warm.status, cold.status);
    if (warm.status == LpStatus::kOptimal)
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-9 * (1.0 + std::abs(cold.objective)))
          << "trial " << trial;
  }
}

TEST(LpSolverHooks, SolveWithBasisFallsBackOnGarbageHints) {
  RngStream rng(73, "lp-garbage");
  LpProblem lp = random_lp(rng, 4, 3);
  const LpSolution cold = solve_lp(lp);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  LpSolver solver;
  // Out-of-range and duplicate hints must fall back, not crash or skew.
  const LpSolution bad1 = solver.solve_with_basis(lp, {999, -1, 0});
  EXPECT_EQ(bad1.status, LpStatus::kOptimal);
  EXPECT_NEAR(bad1.objective, cold.objective, 1e-9);
  const LpSolution bad2 = solver.solve_with_basis(lp, {0, 0, 0});
  EXPECT_EQ(bad2.status, LpStatus::kOptimal);
  EXPECT_NEAR(bad2.objective, cold.objective, 1e-9);
  const LpSolution bad3 = solver.solve_with_basis(lp, {0, 1});  // wrong size
  EXPECT_EQ(bad3.status, LpStatus::kOptimal);
  EXPECT_NEAR(bad3.objective, cold.objective, 1e-9);
}

TEST(LpSolverHooks, DualsSatisfyStrongDualityAndComplementarySlackness) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3: optimum (2, 2), obj 10,
  // duals (2, 1, 0).
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {3, 2};
  lp.add_constraint({1, 1}, Relation::kLe, 4);
  lp.add_constraint({1, 0}, Relation::kLe, 2);
  lp.add_constraint({0, 1}, Relation::kLe, 3);
  LpSolver solver;
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  std::vector<double> duals;
  solver.duals(duals);
  ASSERT_EQ(duals.size(), 3u);
  EXPECT_NEAR(duals[0], 2.0, 1e-9);
  EXPECT_NEAR(duals[1], 1.0, 1e-9);
  EXPECT_NEAR(duals[2], 0.0, 1e-9);
  // Strong duality: lambda . b == optimal objective.
  EXPECT_NEAR(duals[0] * 4 + duals[1] * 2 + duals[2] * 3, sol.objective,
              1e-9);
}

TEST(LpSolverHooks, DualsHonorNegativeRhsNormalization) {
  // max x s.t. -x >= -2 (i.e. x <= 2 after load()'s sign flip): the dual
  // must come back in the CALLER's orientation, lambda.b == 2.
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {1};
  lp.add_constraint({-1}, Relation::kGe, -2);
  LpSolver solver;
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  std::vector<double> duals;
  solver.duals(duals);
  ASSERT_EQ(duals.size(), 1u);
  EXPECT_NEAR(duals[0] * -2.0, 2.0, 1e-9);
}

TEST(LpSolverHooks, RandomDualsSatisfyStrongDuality) {
  RngStream rng(79, "lp-duals");
  for (int trial = 0; trial < 30; ++trial) {
    LpProblem lp = random_lp(rng, rng.uniform_int(2, 6), rng.uniform_int(2, 6));
    LpSolver solver;
    const LpSolution sol = solver.solve(lp);
    ASSERT_EQ(sol.status, LpStatus::kOptimal);
    std::vector<double> duals;
    solver.duals(duals);
    double dual_obj = 0.0;
    for (int i = 0; i < lp.num_constraints(); ++i)
      dual_obj += duals[static_cast<std::size_t>(i)] *
                  lp.rhs[static_cast<std::size_t>(i)];
    EXPECT_NEAR(dual_obj, sol.objective,
                1e-8 * (1.0 + std::abs(sol.objective)))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace meshopt
