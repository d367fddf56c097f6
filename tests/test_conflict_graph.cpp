#include "model/conflict_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.h"

namespace meshopt {
namespace {

TEST(ConflictGraph, EmptyGraphSingleMis) {
  // No conflicts: the only maximal independent set is "all links".
  ConflictGraph g(4);
  const auto sets = g.maximal_independent_sets();
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0], (std::vector<int>{0, 1, 2, 3}));
}

TEST(ConflictGraph, CompleteGraphSingletons) {
  ConflictGraph g(4);
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) g.add_conflict(i, j);
  const auto sets = g.maximal_independent_sets();
  ASSERT_EQ(sets.size(), 4u);
  for (const auto& s : sets) EXPECT_EQ(s.size(), 1u);
}

TEST(ConflictGraph, BitsetRowsMatchNestedSets) {
  // The packed-row API must hold exactly the sets the sorted reference
  // reports (order may differ: enumeration vs sorted).
  RngStream rng(21, "rows");
  ConflictGraph g(70);  // > 64 links: exercises the multi-word path
  for (int i = 0; i < 70; ++i)
    for (int j = i + 1; j < 70; ++j)
      if (rng.bernoulli(0.7)) g.add_conflict(i, j);

  const MisRowSet rows = g.independent_set_rows();
  ASSERT_EQ(rows.num_links(), 70);
  ASSERT_EQ(rows.row_words(), g.row_words());
  std::vector<std::vector<int>> from_rows;
  for (int k = 0; k < rows.count(); ++k) {
    const std::uint64_t* bits = rows.row(k);
    std::vector<int> s;
    for (int w = 0; w < rows.row_words(); ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        s.push_back(w * 64 + std::countr_zero(word));
        word &= word - 1;
      }
    }
    from_rows.push_back(std::move(s));
  }
  std::sort(from_rows.begin(), from_rows.end());
  EXPECT_EQ(from_rows, g.maximal_independent_sets());
}

TEST(ConflictGraph, BitsetRowsHonorCap) {
  ConflictGraph g(10);
  for (int i = 0; i < 10; i += 2) g.add_conflict(i, i + 1);  // 2^5 sets
  EXPECT_EQ(g.independent_set_rows(/*cap=*/7).count(), 7);
  EXPECT_EQ(g.independent_set_rows().count(), 32);
}

TEST(ConflictGraph, PathGraphMis) {
  // Path 0-1-2-3: maximal independent sets {0,2},{0,3},{1,3}.
  ConflictGraph g(4);
  g.add_conflict(0, 1);
  g.add_conflict(1, 2);
  g.add_conflict(2, 3);
  const auto sets = g.maximal_independent_sets();
  const std::set<std::vector<int>> got(sets.begin(), sets.end());
  const std::set<std::vector<int>> want{{0, 2}, {0, 3}, {1, 3}};
  EXPECT_EQ(got, want);
}

TEST(ConflictGraph, SelfConflictIgnored) {
  ConflictGraph g(2);
  g.add_conflict(0, 0);
  EXPECT_FALSE(g.conflicts(0, 0));
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(ConflictGraph, SymmetricEdges) {
  ConflictGraph g(3);
  g.add_conflict(0, 2);
  EXPECT_TRUE(g.conflicts(2, 0));
  EXPECT_TRUE(g.conflicts(0, 2));
  EXPECT_FALSE(g.conflicts(0, 1));
}

// Brute-force reference: enumerate all subsets, keep independent ones that
// are maximal.
std::set<std::vector<int>> brute_force_mis(const ConflictGraph& g) {
  const int n = g.size();
  std::vector<std::vector<int>> independents;
  for (int mask = 1; mask < (1 << n); ++mask) {
    std::vector<int> s;
    for (int v = 0; v < n; ++v)
      if (mask & (1 << v)) s.push_back(v);
    bool indep = true;
    for (std::size_t a = 0; a < s.size() && indep; ++a)
      for (std::size_t b = a + 1; b < s.size() && indep; ++b)
        if (g.conflicts(s[a], s[b])) indep = false;
    if (indep) independents.push_back(s);
  }
  std::set<std::vector<int>> maximal;
  for (const auto& s : independents) {
    bool is_max = true;
    for (const auto& t : independents) {
      if (t.size() > s.size() &&
          std::includes(t.begin(), t.end(), s.begin(), s.end()))
        is_max = false;
    }
    if (is_max) maximal.insert(s);
  }
  return maximal;
}

class RandomGraphMis : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphMis, MatchesBruteForce) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()), "graph");
  const int n = rng.uniform_int(3, 11);
  ConflictGraph g(n);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.4)) g.add_conflict(i, j);

  const auto fast = g.maximal_independent_sets();
  const std::set<std::vector<int>> got(fast.begin(), fast.end());
  EXPECT_EQ(got, brute_force_mis(g)) << "n=" << n;
  EXPECT_EQ(got.size(), fast.size()) << "duplicates emitted";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphMis, ::testing::Range(1, 21));

TEST(ConflictGraph, MisPropertiesOnLargerGraph) {
  RngStream rng(99, "big");
  const int n = 30;
  ConflictGraph g(n);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.3)) g.add_conflict(i, j);
  const auto sets = g.maximal_independent_sets();
  ASSERT_FALSE(sets.empty());
  for (const auto& s : sets) {
    // Independent.
    for (std::size_t a = 0; a < s.size(); ++a)
      for (std::size_t b = a + 1; b < s.size(); ++b)
        EXPECT_FALSE(g.conflicts(s[a], s[b]));
    // Maximal: no vertex outside is compatible with all members.
    for (int v = 0; v < n; ++v) {
      if (std::find(s.begin(), s.end(), v) != s.end()) continue;
      bool compatible = true;
      for (int u : s)
        if (g.conflicts(u, v)) compatible = false;
      EXPECT_FALSE(compatible) << "set not maximal";
    }
  }
}

TEST(ConnectedComponents, EmptyGraph) {
  const ConflictGraph g(0);
  const ComponentPartition part = g.connected_components();
  EXPECT_EQ(part.count(), 0);
  EXPECT_TRUE(part.members.empty());
  EXPECT_TRUE(part.component_of.empty());
}

TEST(ConnectedComponents, SingleClique) {
  ConflictGraph g(5);
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j) g.add_conflict(i, j);
  const ComponentPartition part = g.connected_components();
  ASSERT_EQ(part.count(), 1);
  EXPECT_EQ(part.members[0], (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(part.component_of, (std::vector<int>(5, 0)));
}

TEST(ConnectedComponents, DisjointCliquesAndIsolatedVertices) {
  // Clique {0,1,2}, clique {4,5}, isolated 3 and 6: four components,
  // canonically ordered by smallest member.
  ConflictGraph g(7);
  g.add_conflict(0, 1);
  g.add_conflict(0, 2);
  g.add_conflict(1, 2);
  g.add_conflict(4, 5);
  const ComponentPartition part = g.connected_components();
  ASSERT_EQ(part.count(), 4);
  EXPECT_EQ(part.members[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(part.members[1], (std::vector<int>{3}));
  EXPECT_EQ(part.members[2], (std::vector<int>{4, 5}));
  EXPECT_EQ(part.members[3], (std::vector<int>{6}));
  EXPECT_EQ(part.component_of, (std::vector<int>{0, 0, 0, 1, 2, 2, 3}));
}

TEST(ConnectedComponents, ChainBridgedByOneEdge) {
  // Two chains 0-1-2 and 3-4-5; adding the bridge 2-3 fuses them.
  ConflictGraph g(6);
  g.add_conflict(0, 1);
  g.add_conflict(1, 2);
  g.add_conflict(3, 4);
  g.add_conflict(4, 5);
  EXPECT_EQ(g.connected_components().count(), 2);
  g.add_conflict(2, 3);
  const ComponentPartition part = g.connected_components();
  ASSERT_EQ(part.count(), 1);
  EXPECT_EQ(part.members[0], (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ConnectedComponents, MultiWordBitsetRows) {
  // > 64 vertices so rows span multiple words, with components straddling
  // the word boundary: pairs (2k, 2k+1) conflict — 70 vertices, 35
  // two-vertex components; component 31 is {62, 63}, 32 is {64, 65}.
  ConflictGraph g(140);
  for (int k = 0; k < 70; ++k) g.add_conflict(2 * k, 2 * k + 1);
  const ComponentPartition part = g.connected_components();
  ASSERT_EQ(part.count(), 70);
  for (int k = 0; k < 70; ++k) {
    EXPECT_EQ(part.members[static_cast<std::size_t>(k)],
              (std::vector<int>{2 * k, 2 * k + 1}));
    EXPECT_EQ(part.component_of[static_cast<std::size_t>(2 * k)], k);
    EXPECT_EQ(part.component_of[static_cast<std::size_t>(2 * k + 1)], k);
  }
}

TEST(ConnectedComponents, ChainAcrossWordBoundary) {
  // A path 0-64-130 forces the BFS to discover word-1 and word-2 vertices
  // from a word-0 frontier and then keep expanding them: discoveries in
  // higher words must survive into the component, not just their echoes.
  ConflictGraph g(131);
  g.add_conflict(0, 64);
  g.add_conflict(64, 130);
  const ComponentPartition part = g.connected_components();
  ASSERT_EQ(part.count(), 129);
  EXPECT_EQ(part.members[0], (std::vector<int>{0, 64, 130}));
  EXPECT_EQ(part.component_of[0], 0);
  EXPECT_EQ(part.component_of[64], 0);
  EXPECT_EQ(part.component_of[130], 0);
  // Every other vertex is its own singleton component, each claimed by
  // exactly one component (no overlap with component 0).
  for (int v = 1; v < 131; ++v)
    if (v != 64 && v != 130)
      EXPECT_EQ(part.members[static_cast<std::size_t>(
                    part.component_of[static_cast<std::size_t>(v)])],
                std::vector<int>{v});
}

TEST(ConnectedComponents, MatchesUnionFindOnRandomGraphs) {
  for (int seed = 1; seed <= 12; ++seed) {
    RngStream rng(static_cast<std::uint64_t>(seed), "components");
    const int n = rng.uniform_int(1, 130);
    ConflictGraph g(n);
    // Sparse graphs so multi-component outcomes are common.
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.bernoulli(1.5 / static_cast<double>(n)))
          g.add_conflict(i, j);

    // Union-find reference.
    std::vector<int> parent(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) parent[static_cast<std::size_t>(v)] = v;
    const auto find = [&](int v) {
      while (parent[static_cast<std::size_t>(v)] != v)
        v = parent[static_cast<std::size_t>(v)];
      return v;
    };
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (g.conflicts(i, j)) parent[static_cast<std::size_t>(find(i))] =
            find(j);

    const ComponentPartition part = g.connected_components();
    std::set<int> roots;
    for (int v = 0; v < n; ++v) roots.insert(find(v));
    ASSERT_EQ(part.count(), static_cast<int>(roots.size())) << "n=" << n;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_EQ(part.component_of[static_cast<std::size_t>(i)] ==
                      part.component_of[static_cast<std::size_t>(j)],
                  find(i) == find(j))
            << "n=" << n << " i=" << i << " j=" << j;
    // Canonical form: members ascending within and across components.
    for (int c = 0; c < part.count(); ++c) {
      const auto& m = part.members[static_cast<std::size_t>(c)];
      EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
      if (c > 0)
        EXPECT_LT(part.members[static_cast<std::size_t>(c - 1)][0], m[0]);
    }
  }
}

TEST(TwoHopConflicts, SharedEndpointAlwaysConflicts) {
  const std::vector<LinkRef> links = {{0, 1}, {1, 2}, {3, 4}};
  const auto no_neighbors = [](NodeId, NodeId) { return false; };
  const ConflictGraph g = build_two_hop_conflict_graph(links, no_neighbors);
  EXPECT_TRUE(g.conflicts(0, 1));   // share node 1
  EXPECT_FALSE(g.conflicts(0, 2));  // disjoint, no neighbors
}

TEST(TwoHopConflicts, OneHopNeighborhoodConflicts) {
  const std::vector<LinkRef> links = {{0, 1}, {2, 3}, {4, 5}};
  // 1 and 2 are neighbors; 3..5 isolated from 0..1.
  const auto neighbors = [](NodeId a, NodeId b) {
    return (a == 1 && b == 2) || (a == 2 && b == 1);
  };
  const ConflictGraph g = build_two_hop_conflict_graph(links, neighbors);
  EXPECT_TRUE(g.conflicts(0, 1));
  EXPECT_FALSE(g.conflicts(0, 2));
  EXPECT_FALSE(g.conflicts(1, 2));
}

TEST(LirConflicts, ThresholdClassification) {
  const DenseMatrix lir = {
      {1.0, 0.5, 0.97},
      {0.5, 1.0, 0.94},
      {0.97, 0.94, 1.0},
  };
  const ConflictGraph g = build_lir_conflict_graph(lir, 0.95);
  EXPECT_TRUE(g.conflicts(0, 1));
  EXPECT_FALSE(g.conflicts(0, 2));
  EXPECT_TRUE(g.conflicts(1, 2));
}

}  // namespace
}  // namespace meshopt
