#pragma once
// Flat row-major dense matrix of doubles.
//
// The optimizer hot path (simplex tableau, extreme-point matrices, routing
// matrices) used to be vector<vector<double>>: every row a separate heap
// allocation, scattered across the address space. DenseMatrix stores all
// rows in one contiguous std::vector<double> with a fixed stride, so
//   * walking consecutive rows is a linear scan (prefetcher-friendly),
//   * a row is a plain double* the compiler can vectorize over,
//   * resizing to the same-or-smaller shape reuses capacity (no churn
//     when a solver re-runs on a same-shaped problem).
//
// The stride equals cols(): rows are packed back to back with no padding.

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace meshopt {

/// Row-major dense matrix over one contiguous buffer.
///
/// Invariants: data().size() == rows() * cols(); row r occupies
/// [data() + r*cols(), data() + (r+1)*cols()). An empty matrix has
/// rows() == 0 and keeps whatever column count it was last given.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows x cols matrix filled with `fill`.
  DenseMatrix(int rows, int cols, double fill = 0.0)
      : rows_(rows < 0 ? 0 : rows),
        cols_(cols < 0 ? 0 : cols),
        data_(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_),
              fill) {}

  /// Brace construction: DenseMatrix{{1, 2}, {3, 4}}. All rows must have
  /// the same length.
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = static_cast<int>(rows.size());
    cols_ = rows_ > 0 ? static_cast<int>(rows.begin()->size()) : 0;
    data_.reserve(static_cast<std::size_t>(rows_) *
                  static_cast<std::size_t>(cols_));
    for (const auto& r : rows) {
      if (static_cast<int>(r.size()) != cols_)
        throw std::invalid_argument("DenseMatrix: ragged initializer");
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  /// Copy a vector<vector<double>> (must be rectangular). Bridge for
  /// callers migrating off nested vectors.
  [[nodiscard]] static DenseMatrix from_nested(
      const std::vector<std::vector<double>>& nested) {
    DenseMatrix m;
    m.rows_ = static_cast<int>(nested.size());
    m.cols_ = m.rows_ > 0 ? static_cast<int>(nested.front().size()) : 0;
    m.data_.reserve(static_cast<std::size_t>(m.rows_) *
                    static_cast<std::size_t>(m.cols_));
    for (const auto& r : nested) {
      if (static_cast<int>(r.size()) != m.cols_)
        throw std::invalid_argument("DenseMatrix: ragged nested input");
      m.data_.insert(m.data_.end(), r.begin(), r.end());
    }
    return m;
  }

  /// Inverse bridge, for tests and legacy consumers.
  [[nodiscard]] std::vector<std::vector<double>> to_nested() const {
    std::vector<std::vector<double>> out(static_cast<std::size_t>(rows_));
    for (int r = 0; r < rows_; ++r)
      out[static_cast<std::size_t>(r)].assign(row(r), row(r) + cols_);
    return out;
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  /// Elements per row in the backing buffer (== cols(): rows are packed).
  [[nodiscard]] int stride() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Contiguous row pointer (cols() valid elements).
  [[nodiscard]] double* row(int r) {
    return data_.data() +
           static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }
  [[nodiscard]] const double* row(int r) const {
    return data_.data() +
           static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }

  [[nodiscard]] double& operator()(int r, int c) { return row(r)[c]; }
  [[nodiscard]] double operator()(int r, int c) const { return row(r)[c]; }

  /// Reshape to rows x cols, every element reset to `fill`. Capacity is
  /// reused, so repeated same-shape resizes do not allocate.
  void resize(int rows, int cols, double fill = 0.0) {
    rows_ = rows < 0 ? 0 : rows;
    cols_ = cols < 0 ? 0 : cols;
    data_.assign(
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_),
        fill);
  }

  /// Drop all rows but keep the column count and capacity.
  void clear() {
    rows_ = 0;
    data_.clear();
  }

  /// Make room for `rows` rows at the current column count, so appending
  /// up to that many allocates nothing.
  void reserve_rows(int rows) {
    if (rows > 0)
      data_.reserve(static_cast<std::size_t>(rows) *
                    static_cast<std::size_t>(cols_));
  }

  /// Append one zero-filled row and return its pointer for in-place fill.
  /// The matrix must have a column count (set via ctor/resize/set_cols).
  double* append_row() {
    data_.resize(data_.size() + static_cast<std::size_t>(cols_), 0.0);
    ++rows_;
    return row(rows_ - 1);
  }

  /// Append a row copied from `src` (cols() elements).
  void append_row(const double* src) {
    data_.insert(data_.end(), src, src + cols_);
    ++rows_;
  }

  /// Set the column count of an empty (no-row) matrix.
  void set_cols(int cols) {
    if (rows_ != 0) throw std::logic_error("DenseMatrix::set_cols: has rows");
    cols_ = cols < 0 ? 0 : cols;
  }

  friend bool operator==(const DenseMatrix& a, const DenseMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

}  // namespace meshopt
