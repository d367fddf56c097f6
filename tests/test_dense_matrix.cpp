#include "util/dense_matrix.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace meshopt {
namespace {

TEST(DenseMatrix, DefaultIsEmpty) {
  DenseMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(DenseMatrix, ShapeAndFill) {
  DenseMatrix m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.stride(), 4);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 2.5);
}

TEST(DenseMatrix, RowsArePackedContiguously) {
  DenseMatrix m(3, 4);
  // Row r must start exactly cols() past row r-1 in one buffer.
  EXPECT_EQ(m.row(1), m.row(0) + 4);
  EXPECT_EQ(m.row(2), m.row(0) + 8);
  EXPECT_EQ(m.row(0), m.data());
}

TEST(DenseMatrix, InitializerList) {
  const DenseMatrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(2, 0), 5.0);
}

TEST(DenseMatrix, RaggedInitializerThrows) {
  EXPECT_THROW((DenseMatrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(DenseMatrix, NestedRoundTrip) {
  const std::vector<std::vector<double>> nested{{1, 2, 3}, {4, 5, 6}};
  const DenseMatrix m = DenseMatrix::from_nested(nested);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.to_nested(), nested);
}

TEST(DenseMatrix, RaggedNestedThrows) {
  EXPECT_THROW(DenseMatrix::from_nested({{1.0, 2.0}, {3.0}}),
               std::invalid_argument);
}

TEST(DenseMatrix, AppendRowGrowsAndZeroFills) {
  DenseMatrix m;
  m.set_cols(3);
  double* r0 = m.append_row();
  r0[1] = 7.0;
  const double src[3] = {1.0, 2.0, 3.0};
  m.append_row(src);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m(0, 0), 0.0);
  EXPECT_EQ(m(0, 1), 7.0);
  EXPECT_EQ(m(1, 2), 3.0);
}

TEST(DenseMatrix, SetColsOnNonEmptyThrows) {
  DenseMatrix m(1, 2);
  EXPECT_THROW(m.set_cols(5), std::logic_error);
}

TEST(DenseMatrix, ResizeReusesCapacity) {
  DenseMatrix m(10, 10, 1.0);
  const double* buf = m.data();
  m.resize(8, 9, 0.0);  // smaller shape: no reallocation
  EXPECT_EQ(m.data(), buf);
  EXPECT_EQ(m.rows(), 8);
  EXPECT_EQ(m.cols(), 9);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 9; ++c) EXPECT_EQ(m(r, c), 0.0);
}

TEST(DenseMatrix, ClearKeepsColsAndCapacity) {
  DenseMatrix m(4, 5, 3.0);
  m.clear();
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 5);
  m.append_row();
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m(0, 4), 0.0);
}

TEST(DenseMatrix, ReserveRowsKeepsAppendsInPlace) {
  DenseMatrix m;
  m.set_cols(7);
  m.reserve_rows(5);
  m.append_row();
  const double* buf = m.data();
  for (int r = 1; r < 5; ++r) m.append_row()[6] = r;
  EXPECT_EQ(m.data(), buf);
  EXPECT_EQ(m.rows(), 5);
  EXPECT_EQ(m(4, 6), 4.0);
}

TEST(DenseMatrix, Equality) {
  const DenseMatrix a{{1.0, 2.0}};
  const DenseMatrix b{{1.0, 2.0}};
  const DenseMatrix c{{1.0}, {2.0}};  // same data, different shape
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace meshopt
