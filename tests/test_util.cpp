#include "obs/clock.hpp"
#include "util/matrix.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

namespace netsmith::util {
namespace {

TEST(Matrix, InitAndAccess) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 7);
  m(2, 3) = -1;
  EXPECT_EQ(m(2, 3), -1);
}

TEST(Matrix, FillResets) {
  Matrix<double> m(2, 2, 1.5);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
}

TEST(Matrix, EqualityStructural) {
  Matrix<int> a(2, 2, 1), b(2, 2, 1), c(2, 3, 1);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b(0, 1) = 2;
  EXPECT_FALSE(a == b);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix<int> m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"long-name-here", "1"});
  t.add_row({"x", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  // Every value column starts at the same offset.
  const auto lines_start = s.find("name");
  ASSERT_NE(lines_start, std::string::npos);
  EXPECT_NE(s.find("long-name-here"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TablePrinter, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(2.3456, 2), "2.35");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::fmt(-1.5, 1), "-1.5");
}

TEST(TablePrinter, ShortRowsTolerated) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);  // must not crash or read out of bounds
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(WallTimer, MeasuresElapsed) {
  obs::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

}  // namespace
}  // namespace netsmith::util
