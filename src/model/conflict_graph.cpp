#include "model/conflict_graph.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace meshopt {

namespace {
[[nodiscard]] constexpr int words_for(int n) { return (n + 63) / 64; }
}  // namespace

ConflictGraph::ConflictGraph(int num_links)
    : n_(num_links),
      words_(words_for(num_links)),
      adj_(static_cast<std::size_t>(num_links) *
               static_cast<std::size_t>(words_for(num_links)),
           0) {}

void ConflictGraph::add_conflict(int a, int b) {
  if (a == b) return;
  if (a < 0 || a >= n_ || b < 0 || b >= n_)
    throw std::out_of_range("ConflictGraph::add_conflict");
  auto* ra = adj_.data() + static_cast<std::size_t>(a) * std::size_t(words_);
  auto* rb = adj_.data() + static_cast<std::size_t>(b) * std::size_t(words_);
  ra[b >> 6] |= std::uint64_t{1} << (b & 63);
  rb[a >> 6] |= std::uint64_t{1} << (a & 63);
}

bool ConflictGraph::conflicts(int a, int b) const {
  if (a < 0 || a >= n_ || b < 0 || b >= n_)
    throw std::out_of_range("ConflictGraph::conflicts");
  return (row(a)[b >> 6] >> (b & 63)) & 1;
}

int ConflictGraph::edge_count() const {
  int count = 0;
  for (const std::uint64_t w : adj_) count += std::popcount(w);
  return count / 2;  // each edge is stored in both rows
}

namespace {

/// Bron–Kerbosch with pivoting over the *complement* adjacency: cliques of
/// the complement are independent sets of the conflict graph. P, X and the
/// candidate sets live in flat per-depth bitset buffers preallocated up
/// front, so a recursion level is word-parallel ANDs into its own rows —
/// no vector copies, no allocation.
///
/// The enumerator streams each maximal set to a sink as a packed bitset
/// row (r_bits_), maintained incrementally on recursion push/pop. The
/// sorted-set API decodes the row into vertex indices; the row API copies
/// the words.
class BitsetBronKerbosch {
 public:
  BitsetBronKerbosch(const ConflictGraph& g, std::size_t cap)
      : n_(g.size()), words_(g.row_words()), cap_(cap) {
    // Complement rows, diagonal off: comp_[v] bit w = "v and w can be in
    // the same independent set".
    comp_.assign(static_cast<std::size_t>(n_) * std::size_t(words_), 0);
    const std::uint64_t tail_mask =
        (n_ % 64 == 0) ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << (n_ % 64)) - 1);
    for (int v = 0; v < n_; ++v) {
      std::uint64_t* cr = comp_.data() + std::size_t(v) * std::size_t(words_);
      const std::uint64_t* ar = g.row(v);
      for (int w = 0; w < words_; ++w) cr[w] = ~ar[w];
      cr[words_ - 1] &= tail_mask;
      cr[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    }
    // Depth d of the recursion owns rows d of p_, x_ and cand_.
    const std::size_t depth_rows =
        static_cast<std::size_t>(n_ + 1) * std::size_t(words_);
    p_.assign(depth_rows, 0);
    x_.assign(depth_rows, 0);
    cand_.assign(depth_rows, 0);
    r_bits_.assign(static_cast<std::size_t>(words_), 0);
  }

  /// Enumerate, calling `emit(bits)` with the packed membership row of
  /// each maximal independent set. The pointer is valid only during the
  /// call.
  template <typename Emit>
  void run(Emit&& emit) {
    if (n_ == 0) return;
    std::uint64_t* p0 = p_.data();
    for (int v = 0; v < n_; ++v) p0[v >> 6] |= std::uint64_t{1} << (v & 63);
    expand(0, emit);
  }

 private:
  [[nodiscard]] const std::uint64_t* comp_row(int v) const {
    return comp_.data() + static_cast<std::size_t>(v) * std::size_t(words_);
  }

  [[nodiscard]] static bool empty_row(const std::uint64_t* r, int words) {
    for (int w = 0; w < words; ++w)
      if (r[w] != 0) return false;
    return true;
  }

  template <typename Emit>
  void expand(int depth, Emit& emit) {
    if (emitted_ >= cap_) return;
    std::uint64_t* p = p_.data() + std::size_t(depth) * std::size_t(words_);
    std::uint64_t* x = x_.data() + std::size_t(depth) * std::size_t(words_);
    if (empty_row(p, words_) && empty_row(x, words_)) {
      ++emitted_;
      emit(static_cast<const std::uint64_t*>(r_bits_.data()));
      return;
    }

    // Pivot: vertex of P ∪ X with the most complement-neighbors in P.
    int pivot = -1, best = -1;
    for (int w = 0; w < words_; ++w) {
      std::uint64_t both = p[w] | x[w];
      while (both != 0) {
        const int u = w * 64 + std::countr_zero(both);
        both &= both - 1;
        const std::uint64_t* cu = comp_row(u);
        int deg = 0;
        for (int k = 0; k < words_; ++k)
          deg += std::popcount(p[k] & cu[k]);
        if (deg > best) {
          best = deg;
          pivot = u;
        }
      }
    }

    // Candidates: P minus the pivot's complement-neighborhood.
    std::uint64_t* cand =
        cand_.data() + std::size_t(depth) * std::size_t(words_);
    const std::uint64_t* cp = comp_row(pivot);
    for (int w = 0; w < words_; ++w) cand[w] = p[w] & ~cp[w];

    std::uint64_t* cp_next =
        p_.data() + std::size_t(depth + 1) * std::size_t(words_);
    std::uint64_t* cx_next =
        x_.data() + std::size_t(depth + 1) * std::size_t(words_);
    for (int w = 0; w < words_; ++w) {
      while (cand[w] != 0) {
        const int v = w * 64 + std::countr_zero(cand[w]);
        cand[w] &= cand[w] - 1;
        const std::uint64_t* cv = comp_row(v);
        for (int k = 0; k < words_; ++k) {
          cp_next[k] = p[k] & cv[k];
          cx_next[k] = x[k] & cv[k];
        }
        r_bits_[static_cast<std::size_t>(v >> 6)] |= std::uint64_t{1}
                                                     << (v & 63);
        expand(depth + 1, emit);
        r_bits_[static_cast<std::size_t>(v >> 6)] &=
            ~(std::uint64_t{1} << (v & 63));
        p[w] &= ~(std::uint64_t{1} << (v & 63));
        x[w] |= std::uint64_t{1} << (v & 63);
        if (emitted_ >= cap_) return;
      }
    }
  }

  int n_;
  int words_;
  std::size_t cap_;
  std::size_t emitted_ = 0;
  std::vector<std::uint64_t> comp_;
  std::vector<std::uint64_t> p_, x_, cand_;
  std::vector<std::uint64_t> r_bits_;  ///< membership row of the current R
};

}  // namespace

std::vector<std::vector<int>> ConflictGraph::maximal_independent_sets(
    std::size_t cap) const {
  if (n_ == 0) return {};
  std::vector<std::vector<int>> sets;
  const int words = words_;
  // Decode each packed row into ascending vertex indices (bit scan order
  // is already sorted), then order the sets lexicographically — the
  // canonical output this API has always produced.
  BitsetBronKerbosch bk(*this, cap);
  bk.run([&sets, words](const std::uint64_t* bits) {
    int size = 0;
    for (int w = 0; w < words; ++w) size += std::popcount(bits[w]);
    std::vector<int> s;
    s.reserve(static_cast<std::size_t>(size));
    for (int w = 0; w < words; ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        s.push_back(w * 64 + std::countr_zero(word));
        word &= word - 1;
      }
    }
    sets.push_back(std::move(s));
  });
  std::sort(sets.begin(), sets.end());
  return sets;
}

MisRowSet ConflictGraph::independent_set_rows(std::size_t cap) const {
  MisRowSet rows(n_);
  if (n_ == 0) return rows;
  BitsetBronKerbosch bk(*this, cap);
  bk.run([&rows](const std::uint64_t* bits) { rows.append(bits); });
  return rows;
}

ComponentPartition ConflictGraph::connected_components() const {
  ComponentPartition part;
  part.component_of.assign(static_cast<std::size_t>(n_), -1);
  if (n_ == 0) return part;
  const int words = words_;
  std::vector<std::uint64_t> visited(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> frontier(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> next(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> in_comp(static_cast<std::size_t>(words), 0);
  for (int start = 0; start < n_; ++start) {
    if ((visited[std::size_t(start >> 6)] >> (start & 63)) & 1) continue;
    // Seed a new component at the smallest unvisited link; scanning
    // starts ascending makes the component order canonical by smallest
    // member.
    std::fill(frontier.begin(), frontier.end(), 0);
    std::fill(in_comp.begin(), in_comp.end(), 0);
    frontier[std::size_t(start >> 6)] |= std::uint64_t{1} << (start & 63);
    in_comp[std::size_t(start >> 6)] |= std::uint64_t{1} << (start & 63);
    bool grew = true;
    while (grew) {
      grew = false;
      // Next frontier = union of the current frontier's adjacency rows,
      // minus everything already in the component. The next buffer must
      // stay separate from the frontier being scanned: expanding into the
      // scan target would consume higher-word discoveries before they are
      // committed to in_comp, silently dropping them from the component.
      std::fill(next.begin(), next.end(), 0);
      for (int w = 0; w < words; ++w) {
        std::uint64_t f = frontier[std::size_t(w)];
        while (f != 0) {
          const int v = w * 64 + std::countr_zero(f);
          f &= f - 1;
          const std::uint64_t* rv = row(v);
          for (int k = 0; k < words; ++k)
            next[std::size_t(k)] |= rv[k];
        }
      }
      for (int k = 0; k < words; ++k) {
        next[std::size_t(k)] &= ~in_comp[std::size_t(k)];
        if (next[std::size_t(k)] != 0) grew = true;
        in_comp[std::size_t(k)] |= next[std::size_t(k)];
        frontier[std::size_t(k)] = next[std::size_t(k)];
      }
    }
    const int comp = static_cast<int>(part.members.size());
    std::vector<int> links;
    for (int w = 0; w < words; ++w) {
      visited[std::size_t(w)] |= in_comp[std::size_t(w)];
      std::uint64_t word = in_comp[std::size_t(w)];
      while (word != 0) {
        const int v = w * 64 + std::countr_zero(word);
        word &= word - 1;
        links.push_back(v);
        part.component_of[std::size_t(v)] = comp;
      }
    }
    part.members.push_back(std::move(links));
  }
  return part;
}

ConflictGraph build_lir_conflict_graph(const DenseMatrix& lir,
                                       double threshold) {
  if (lir.rows() != lir.cols())
    throw std::invalid_argument("LIR table must be square");
  const int n = lir.rows();
  ConflictGraph g(n);
  for (int i = 0; i < n; ++i) {
    const double* row = lir.row(i);
    for (int j = i + 1; j < n; ++j) {
      if (row[j] < threshold) g.add_conflict(i, j);
    }
  }
  return g;
}

ConflictGraph build_two_hop_conflict_graph(
    const std::vector<LinkRef>& links,
    const std::function<bool(NodeId, NodeId)>& is_neighbor) {
  const int n = static_cast<int>(links.size());
  ConflictGraph g(n);
  const auto close = [&](NodeId a, NodeId b) {
    return a == b || is_neighbor(a, b);
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const LinkRef& l1 = links[std::size_t(i)];
      const LinkRef& l2 = links[std::size_t(j)];
      const bool conflict =
          close(l1.src, l2.src) || close(l1.src, l2.dst) ||
          close(l1.dst, l2.src) || close(l1.dst, l2.dst);
      if (conflict) g.add_conflict(i, j);
    }
  }
  return g;
}

}  // namespace meshopt
