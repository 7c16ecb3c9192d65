#include <gtest/gtest.h>

#include <sstream>

#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace simas {
namespace {

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(8, 4), 2);
}

TEST(Types, Square) {
  EXPECT_DOUBLE_EQ(sq(3.0), 9.0);
  EXPECT_DOUBLE_EQ(sq(-2.5), 6.25);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.0, 0), "3");
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
}

TEST(Table, AlignsColumnsAndPrintsHeader) {
  Table t("demo");
  t.set_header({"a", "long-header", "c"});
  t.row().cell(std::string("x")).cell(1.5, 1).cell(42);
  t.row().cell(std::string("yyyy")).cell(10.25, 2).cell(7);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("10.25"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t;
  t.set_header({"x", "y"});
  t.row().cell(1).cell(2);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Options, ParsesKeyValueForms) {
  // A bare token after a --key is consumed as its value, so positionals
  // come first (documented parser behaviour).
  const char* argv[] = {"prog", "positional", "--nr", "32", "--np=64",
                        "--flag"};
  Options opt(6, argv);
  EXPECT_EQ(opt.get_int("nr", 0), 32);
  EXPECT_EQ(opt.get_int("np", 0), 64);
  EXPECT_TRUE(opt.get_bool("flag", false));  // trailing bare flag -> true
  EXPECT_FALSE(opt.get_bool("missing", false));
  EXPECT_EQ(opt.get("missing", "def"), "def");
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "positional");
}

TEST(Options, DoubleAndBoolParsing) {
  const char* argv[] = {"prog", "--x", "2.5", "--b", "true", "--c=off"};
  Options opt(6, argv);
  EXPECT_DOUBLE_EQ(opt.get_double("x", 0.0), 2.5);
  EXPECT_TRUE(opt.get_bool("b", false));
  EXPECT_FALSE(opt.get_bool("c", true));
}

TEST(Options, IntListSplitsOnCommas) {
  const char* argv[] = {"prog", "--ranks=2,8,16", "--one=4"};
  Options opt(3, argv);
  EXPECT_EQ(opt.get_int_list("ranks", {1}), (std::vector<int>{2, 8, 16}));
  EXPECT_EQ(opt.get_int_list("one", {1}), (std::vector<int>{4}));
  EXPECT_EQ(opt.get_int_list("missing", {2, 8}), (std::vector<int>{2, 8}));
}

TEST(Options, OnlyNamesUnknownKeysAndPositionals) {
  const char* argv[] = {"prog", "stray", "--steps=3", "--bogus=1"};
  Options opt(4, argv);
  std::ostringstream err;
  EXPECT_FALSE(opt.only({"steps", "out"}, err));
  EXPECT_EQ(err.str(), "unknown arg: --bogus\nunknown arg: stray\n");

  const char* good[] = {"prog", "--steps=3", "--out=x.json"};
  std::ostringstream none;
  EXPECT_TRUE(Options(3, good).only({"steps", "out"}, none));
  EXPECT_EQ(none.str(), "");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(123);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(StopWatch, AccumulatesIntervals) {
  StopWatch w;
  EXPECT_FALSE(w.running());
  w.start();
  EXPECT_TRUE(w.running());
  w.stop();
  const double t1 = w.seconds();
  EXPECT_GE(t1, 0.0);
  w.start();
  w.stop();
  EXPECT_GE(w.seconds(), t1);
}

}  // namespace
}  // namespace simas
