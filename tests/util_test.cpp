// Tests for src/util: RNG, bit vectors, strings, tables, CLI.

#include <gtest/gtest.h>

#include <set>

#include "util/bitvec.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace stc {
namespace {

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next() != b.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(r.range(3, 3), 3);
  EXPECT_EQ(r.range(5, 1), 5);  // degenerate: returns lo
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(77);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- BitVec ------------------------------------------------------------------

TEST(BitVec, BasicSetGet) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.none());
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVec, FromStringRoundTrip) {
  const std::string s = "1010011";
  BitVec v = BitVec::from_string(s);
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.count(), 4u);
  EXPECT_THROW(BitVec::from_string("10x"), std::invalid_argument);
}

TEST(BitVec, FromWord) {
  BitVec v = BitVec::from_word(0b1011, 6);
  EXPECT_EQ(v.to_string(), "110100");
  EXPECT_EQ(v.to_word(), 0b1011u);
}

TEST(BitVec, BitwiseOps) {
  BitVec a = BitVec::from_string("1100");
  BitVec b = BitVec::from_string("1010");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  BitVec c(5);
  EXPECT_THROW(a &= c, std::invalid_argument);
}

TEST(BitVec, FlipAndAll) {
  BitVec v(3, true);
  EXPECT_TRUE(v.all());
  v.flip(1);
  EXPECT_FALSE(v.all());
  EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, ResizePreservesAndExtends) {
  BitVec v(4);
  v.set(3, true);
  v.resize(8, true);
  EXPECT_TRUE(v.get(3));
  EXPECT_TRUE(v.get(7));
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.count(), 5u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(4);
  EXPECT_THROW(v.get(4), std::out_of_range);
  EXPECT_THROW(v.set(4, true), std::out_of_range);
}

TEST(BitVec, HashAndEquality) {
  BitVec a = BitVec::from_string("101");
  BitVec b = BitVec::from_string("101");
  BitVec c = BitVec::from_string("1010");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitWs) {
  auto t = split_ws("  a\tbb  ccc \n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "ccc");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, SplitOn) {
  auto t = split_on("a,,b", ',');
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(Strings, Affixes) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(Strings, ParseSize) {
  EXPECT_EQ(parse_size("042"), 42u);
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("1x"), std::invalid_argument);
  EXPECT_THROW(parse_size("-1"), std::invalid_argument);
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("%s", ""), "");
}

// --- AsciiTable --------------------------------------------------------------

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"name", "v"});
  t.add_row({"aa", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name | v  |"), std::string::npos);
  EXPECT_NE(out.find("| aa   | 1  |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(AsciiTable, ArityMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiTable, CsvLine) {
  EXPECT_EQ(csv_line({"a", "1", "x"}), "a,1,x");
  EXPECT_EQ(csv_line({}), "");
}

// --- Cli ---------------------------------------------------------------------

TEST(Cli, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--k", "v", "--flag", "--n=5", "pos1", "pos2"};
  Cli cli(7, const_cast<char**>(argv), {"k", "flag"}, {"n", "absent"});
  EXPECT_EQ(cli.get("k", ""), "v");
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get_int("n", 0), 5);
  EXPECT_EQ(cli.get_int("absent", 9), 9);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[1], "pos2");
}

TEST(Cli, UnknownFlagIsATypedError) {
  // A retired flag must fail loudly, not run with the defaults.
  const char* argv[] = {"prog", "--machine", "dk27", "--lanes", "512"};
  try {
    Cli cli(5, const_cast<char**>(argv), {"machine"}, {"jobs"});
    FAIL() << "--lanes must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(e.context().find("flag=--lanes"), std::string::npos)
        << e.context();
  }
  const char* eq[] = {"prog", "--technology=multi_level"};
  EXPECT_THROW(Cli(2, const_cast<char**>(eq), {"tech"}), Error);
}

TEST(Cli, NonIntegerValueIsATypedError) {
  // strtol alone would turn "--jobs abc" into 0.
  for (const char* bad : {"abc", "4x", "1.5", "99999999999999999999999"}) {
    const char* argv[] = {"prog", "--jobs", bad};
    try {
      Cli cli(3, const_cast<char**>(argv), {}, {"jobs"});
      FAIL() << "--jobs " << bad << " must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(e.context().find("flag=--jobs"), std::string::npos)
          << e.context();
      EXPECT_NE(e.context().find(std::string("value=") + bad),
                std::string::npos)
          << e.context();
    }
  }
  // A text flag read as an integer is checked where it is read.
  const char* argv[] = {"prog", "--seed", "x1"};
  const Cli cli(3, const_cast<char**>(argv), {"seed"});
  EXPECT_THROW(cli.get_int("seed", 0), Error);
  const char* ok[] = {"prog", "--jobs", "-3"};
  EXPECT_EQ(Cli(3, const_cast<char**>(ok), {}, {"jobs"}).get_int("jobs", 0), -3);
}

TEST(Cli, MalformedDoubleIsATypedError) {
  // Bare strtod would run "--defect-rate abc" at rate 0 and
  // "--instances 1e2x" at 100 instances.
  for (const char* bad : {"abc", "1e2x", "", "nan", "inf", "-inf", "1e999"}) {
    const std::string arg = std::string("--rate=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    try {
      Cli cli(2, const_cast<char**>(argv), {}, {}, {"rate"});
      FAIL() << "--rate " << bad << " must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(e.context().find("flag=--rate"), std::string::npos)
          << e.context();
      EXPECT_NE(e.context().find(std::string("value=") + bad),
                std::string::npos)
          << e.context();
    }
    EXPECT_FALSE(parse_cli(2, const_cast<char**>(argv), "usage: prog\n", {}, {},
                           {"rate"})
                     .has_value())
        << bad;
  }
  const char* ok[] = {"prog", "--rate", "1.5", "--instances=1e6"};
  const Cli cli(4, const_cast<char**>(ok), {}, {}, {"rate", "instances", "absent"});
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(cli.get_double("instances", 0.0), 1e6);
  EXPECT_DOUBLE_EQ(cli.get_double("absent", 2.5), 2.5);
  // A text flag read as a number is checked where it is read.
  const char* text[] = {"prog", "--grace", "x"};
  EXPECT_THROW(Cli(3, const_cast<char**>(text), {"grace"}).get_double("grace", 0.0),
               Error);
}

TEST(Cli, ParseCliReturnsNothingOnAnUnknownFlag) {
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_FALSE(parse_cli(2, const_cast<char**>(argv), "usage: prog\n", {"a"})
                   .has_value());
  const char* good[] = {"prog", "--a", "x"};
  const auto cli = parse_cli(3, const_cast<char**>(good), "usage: prog\n", {"a"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_EQ(cli->get("a", ""), "x");
}

}  // namespace
}  // namespace stc
