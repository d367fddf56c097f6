#pragma once
// Conflict graph over directed links (paper Section 3.2): vertices are
// links, edges mean "mutually exclusive under binary interference". Its
// maximal independent sets are the link sets that can transmit
// simultaneously — they generate the secondary extreme points.
//
// Two builders are provided:
//   * binary-LIR: an edge wherever the measured LIR of the pair is below
//     the threshold (the paper's reference model, Section 4.2),
//   * two-hop: an edge wherever any endpoint of one link is within one
//     hop of an endpoint of the other (the online model, Section 5.5).

#include <cstdint>
#include <functional>
#include <vector>

#include "phy/radio.h"
#include "scenario/workbench.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Packed maximal-independent-set rows, in Bron–Kerbosch enumeration
/// order: row k occupies words [k*row_words(), (k+1)*row_words()), bit j
/// of word j/64 set iff link j belongs to set k. This is the cacheable
/// product of one enumeration — the topology-dependent half of the
/// extreme-point build: capacities can be re-applied to the same rows
/// round after round without re-running Bron–Kerbosch
/// (InterferenceModel::refill, core/interference.h).
class MisRowSet {
 public:
  MisRowSet() = default;
  explicit MisRowSet(int num_links)
      : num_links_(num_links < 0 ? 0 : num_links),
        words_((num_links_ + 63) / 64) {}

  /// Append one packed row (row_words() words, copied).
  void append(const std::uint64_t* bits) {
    bits_.insert(bits_.end(), bits, bits + words_);
    ++count_;
  }

  [[nodiscard]] int count() const { return count_; }
  [[nodiscard]] int num_links() const { return num_links_; }
  [[nodiscard]] int row_words() const { return words_; }
  [[nodiscard]] const std::uint64_t* row(int k) const {
    return bits_.data() +
           static_cast<std::size_t>(k) * static_cast<std::size_t>(words_);
  }

  friend bool operator==(const MisRowSet&, const MisRowSet&) = default;

 private:
  int num_links_ = 0;
  int words_ = 0;
  int count_ = 0;
  std::vector<std::uint64_t> bits_;  ///< count_ rows of words_ words each
};

/// Connected components of a conflict graph, in canonical order: the
/// components are sorted by their smallest member link, and each member
/// list is ascending. Two links in different components can never
/// conflict, so the rate region factors across components (the basis of
/// the decomposition tier, see opt/decompose.h).
struct ComponentPartition {
  /// members[c] = ascending link indices of component c; components
  /// ordered by members[c][0] ascending.
  std::vector<std::vector<int>> members;
  /// component_of[l] = index into members for link l.
  std::vector<int> component_of;

  [[nodiscard]] int count() const { return static_cast<int>(members.size()); }

  friend bool operator==(const ComponentPartition&,
                         const ComponentPartition&) = default;
};

/// Adjacency is stored as packed 64-bit bitset rows (row i, bit j set when
/// links i and j conflict), so set operations in the enumeration are word-
/// parallel AND/ANDNOT + popcount instead of per-vertex scans.
class ConflictGraph {
 public:
  explicit ConflictGraph(int num_links);

  [[nodiscard]] int size() const { return n_; }

  void add_conflict(int a, int b);
  [[nodiscard]] bool conflicts(int a, int b) const;

  [[nodiscard]] int edge_count() const;

  /// All maximal independent sets (maximal cliques of the complement),
  /// enumerated with Bron–Kerbosch + pivoting over bitset intersections.
  /// `cap` bounds the output as a safety valve; testbed-scale graphs stay
  /// far below it. Output is canonical: each set sorted ascending, sets
  /// in lexicographic order. The reference enumeration tests compare
  /// against; nothing on the plan path calls it.
  [[nodiscard]] std::vector<std::vector<int>> maximal_independent_sets(
      std::size_t cap = 200000) const;

  /// The same enumeration as packed rows (see MisRowSet), in Bron–Kerbosch
  /// enumeration order — deterministic for a given graph, but not the
  /// sorted order of maximal_independent_sets(). `cap` bounds the number
  /// of rows. This is the model stage's MIS output (core/interference.h).
  [[nodiscard]] MisRowSet independent_set_rows(std::size_t cap = 200000) const;

  /// Connected components via bitset BFS over the packed adjacency rows:
  /// each frontier expansion ORs whole adjacency rows, so the cost is
  /// O(V * row_words) words per component rather than per-edge pointer
  /// chasing. Output is canonical (see ComponentPartition) and the
  /// isolated-vertex case yields singleton components.
  [[nodiscard]] ComponentPartition connected_components() const;

  /// Number of 64-bit words per adjacency row.
  [[nodiscard]] int row_words() const { return words_; }
  /// Raw adjacency row (row_words() words, bit j of word j/64 = conflict).
  [[nodiscard]] const std::uint64_t* row(int i) const {
    return adj_.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(words_);
  }

 private:
  int n_;
  int words_;
  std::vector<std::uint64_t> adj_;  ///< n_ rows of words_ words each
};

/// Binary-LIR conflict graph from a pairwise LIR table (entry (i,j) is the
/// measured LIR of links i and j; diagonal ignored). The table must be
/// square (L×L, aligned with the link order). This is the only entry
/// point: the nested-vector overload was removed once every caller moved
/// to DenseMatrix (use DenseMatrix::from_nested at the boundary if a
/// legacy table arrives as vector<vector<double>>).
[[nodiscard]] ConflictGraph build_lir_conflict_graph(const DenseMatrix& lir,
                                                     double threshold = 0.95);

/// Two-hop interference model: links conflict when they share an endpoint
/// or have endpoints within one hop of each other. `is_neighbor` is the
/// connectivity predicate (decodable in either direction).
[[nodiscard]] ConflictGraph build_two_hop_conflict_graph(
    const std::vector<LinkRef>& links,
    const std::function<bool(NodeId, NodeId)>& is_neighbor);

}  // namespace meshopt
