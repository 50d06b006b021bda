// Tests for the BIST primitives: LFSR, MISR, BILBO, fault enumeration.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bist/bilbo.hpp"
#include "bist/faults.hpp"
#include "bist/lfsr.hpp"
#include "bist/misr.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

// --- LFSR ---------------------------------------------------------------------

class LfsrPeriod : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LfsrPeriod, PrimitivePolynomialGivesFullPeriod) {
  const std::size_t w = GetParam();
  Lfsr lfsr(w, 1);
  EXPECT_EQ(lfsr.period(), (std::uint64_t{1} << w) - 1) << "width " << w;
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriod,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                           14, 15, 16));

TEST(Lfsr, VisitsAllNonzeroStates) {
  Lfsr lfsr(4, 1);
  std::set<std::uint64_t> seen;
  for (int k = 0; k < 15; ++k) {
    seen.insert(lfsr.state());
    lfsr.step();
  }
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_FALSE(seen.count(0));
}

TEST(Lfsr, ZeroSeedCoerced) {
  Lfsr lfsr(5, 0);
  EXPECT_NE(lfsr.state(), 0u);
  // The coercion is no longer silent: seed() reports it and the query
  // remembers it, so callers can detect that 0 and 1 alias.
  EXPECT_TRUE(lfsr.last_seed_coerced());
  EXPECT_FALSE(lfsr.seed(1));
  EXPECT_FALSE(lfsr.last_seed_coerced());
  EXPECT_TRUE(lfsr.seed(0));
  EXPECT_TRUE(lfsr.seed(std::uint64_t{1} << 5));  // masked to zero -> coerced
}

TEST(Lfsr, BadParametersThrow) {
  EXPECT_THROW(Lfsr(0, 1), std::invalid_argument);
  EXPECT_THROW(Lfsr(65, 1), std::invalid_argument);
  EXPECT_THROW(Lfsr(4, {3, 2}, 1), std::invalid_argument);   // missing top tap
  EXPECT_THROW(Lfsr(4, {4, 9}, 1), std::invalid_argument);   // tap > width
  EXPECT_THROW(primitive_taps(0), std::invalid_argument);
  EXPECT_THROW(primitive_taps(65), std::invalid_argument);
}

TEST(Lfsr, NonPrimitivePolynomialShorterPeriod) {
  // x^4 + x^2 + 1 = (x^2+x+1)^2 is not primitive: period divides 6.
  Lfsr lfsr(4, {4, 2}, 1);
  EXPECT_LT(lfsr.period(), 15u);
}

TEST(Lfsr, DeterministicSequence) {
  Lfsr a(8, 0xAB), b(8, 0xAB);
  for (int k = 0; k < 50; ++k) EXPECT_EQ(a.step(), b.step());
}

// --- MISR ---------------------------------------------------------------------

TEST(Misr, ZeroInputsFollowLfsrRecurrence) {
  Misr misr(6, 1);
  Lfsr lfsr(6, 1);
  for (int k = 0; k < 30; ++k) EXPECT_EQ(misr.absorb(0), lfsr.step());
}

TEST(Misr, DifferentStreamsDifferentSignatures) {
  Misr a(16), b(16);
  for (int k = 0; k < 32; ++k) {
    a.absorb(static_cast<std::uint64_t>(k));
    b.absorb(static_cast<std::uint64_t>(k ^ (k == 7 ? 1 : 0)));  // one flipped bit
  }
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, SingleBitErrorNeverAliases) {
  // A single injected error can never produce the fault-free signature
  // (linearity: the error syndrome is a nonzero state evolved linearly).
  for (int pos = 0; pos < 20; ++pos) {
    Misr good(8), bad(8);
    for (int k = 0; k < 25; ++k) {
      const std::uint64_t v = static_cast<std::uint64_t>(37 * k + 11) & 0xFF;
      good.absorb(v);
      bad.absorb(k == pos ? v ^ 0x10 : v);
    }
    EXPECT_NE(good.signature(), bad.signature()) << "error at " << pos;
  }
}

TEST(Misr, ResetClearsState) {
  Misr m(8, 0x5A);
  m.absorb(0xFF);
  m.reset(0x5A);
  EXPECT_EQ(m.signature(), 0x5Au);
}

TEST(LaneMisr, RingMatchesScalarMisrAtEveryWidth) {
  // The ring index replaces the row shift: every lane's signature must stay
  // the scalar Misr's on the same stream, at every width, for chunks that
  // fill all rows, fewer rows or none, at one and two lane words; the
  // lane-0 and pairwise compares must read the ring through its head, and
  // reset() must restart it. Pairs in the low nibble of each byte get
  // equal streams, so the pair compare sees equal and unequal pairs.
  constexpr std::uint64_t kEven = 0x5555555555555555ULL;
  constexpr std::uint64_t kSame = 0x0F0F0F0F0F0F0F0FULL;
  Rng rng(0x115A);
  for (std::size_t width = 1; width <= 64; ++width)
    for (const unsigned W : {1u, 2u}) {
      SCOPED_TRACE("width " + std::to_string(width) + ", " +
                   std::to_string(W) + " lane words");
      const std::size_t n_lanes = 64 * W;
      LaneMisr lanes(width, W);
      std::vector<Misr> scalar(n_lanes, Misr(width));
      const auto run = [&](std::size_t cycles) {
        for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
          const std::size_t n =
              cycle % 2 == 0 ? width
                             : static_cast<std::size_t>(rng.below(width + 1));
          std::vector<std::uint64_t> in(n_lanes, 0);
          for (std::size_t k = 0; k < n; ++k) {
            std::uint64_t* row = lanes.chunk_row(k);
            for (unsigned w = 0; w < W; ++w) {
              const std::uint64_t v = rng.next();
              const std::uint64_t even = v & kEven;
              row[w] = (v & ~kSame) | ((even | (even << 1)) & kSame);
            }
            for (std::size_t l = 0; l < n_lanes; ++l)
              in[l] |= ((row[l >> 6] >> (l & 63)) & 1) << k;
          }
          lanes.absorb(n);
          for (std::size_t l = 0; l < n_lanes; ++l) scalar[l].absorb(in[l]);
        }
        std::uint64_t diff[2] = {0, 0}, pair_diff[2] = {0, 0};
        lanes.accumulate_diff(diff);
        lanes.accumulate_pair_diff(pair_diff);
        for (std::size_t l = 0; l < n_lanes; ++l) {
          ASSERT_EQ(lanes.lane_signature(l), scalar[l].signature()) << l;
          const bool differs = scalar[l].signature() != scalar[0].signature();
          EXPECT_EQ((diff[l >> 6] >> (l & 63)) & 1, differs ? 1u : 0u) << l;
          const bool pair_differs =
              scalar[l & ~std::size_t{1}].signature() !=
              scalar[l | 1].signature();
          const bool flagged = (pair_diff[l >> 6] >> (l & 63)) & 1;
          EXPECT_EQ(flagged, l % 2 == 0 && pair_differs) << l;
        }
      };
      run(2 * width + 3);  // the head wraps at least twice
      lanes.reset();
      for (Misr& m : scalar) m.reset();
      run(width + 1);
    }
}

// --- BILBO --------------------------------------------------------------------

TEST(Bilbo, SystemModeLoadsParallelInput) {
  Bilbo b(4);
  b.clock(BilboMode::kSystem, 0b1010);
  EXPECT_EQ(b.state(), 0b1010u);
}

TEST(Bilbo, GenerateModeMatchesLfsr) {
  Bilbo b(5, 1);
  Lfsr l(5, 1);
  for (int k = 0; k < 20; ++k) {
    b.clock(BilboMode::kGenerate);
    EXPECT_EQ(b.state(), l.step());
  }
}

TEST(Bilbo, GenerateWidth1Toggles) {
  Bilbo b(1, 0);
  b.clock(BilboMode::kGenerate);
  EXPECT_EQ(b.state(), 1u);
  b.clock(BilboMode::kGenerate);
  EXPECT_EQ(b.state(), 0u);
}

TEST(Bilbo, CompressModeMatchesMisr) {
  Bilbo b(6, 0);
  Misr m(6, 0);
  for (int k = 0; k < 20; ++k) {
    const std::uint64_t v = static_cast<std::uint64_t>(k * 13) & 0x3F;
    b.clock(BilboMode::kCompress, v);
    EXPECT_EQ(b.state(), m.absorb(v));
  }
}

TEST(Bilbo, ShiftModeScans) {
  Bilbo b(3, 0);
  b.clock(BilboMode::kShift, 0, true);
  b.clock(BilboMode::kShift, 0, false);
  b.clock(BilboMode::kShift, 0, true);
  EXPECT_EQ(b.state(), 0b101u);
  EXPECT_TRUE(b.scan_out());
}

TEST(Bilbo, HoldKeepsState) {
  Bilbo b(4, 0b0110);
  b.clock(BilboMode::kHold, 0b1111);
  EXPECT_EQ(b.state(), 0b0110u);
}

// --- fault enumeration -----------------------------------------------------------

TEST(Faults, TwoPerNetSkippingConstants) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_const(true);
  const NetId g = nl.add_not(a);
  nl.add_output(g, "o");
  nl.finalize();
  const auto faults = enumerate_stuck_faults(nl);
  EXPECT_EQ(faults.size(), 4u);  // (input + NOT) x 2, const skipped
}

TEST(Faults, DescribeMentionsTypeAndPolarity) {
  Netlist nl;
  const NetId a = nl.add_input("clk");
  nl.add_output(nl.add_not(a), "o");
  nl.finalize();
  const Fault f{a, true};
  const std::string d = f.describe(nl);
  EXPECT_NE(d.find("pi"), std::string::npos);
  EXPECT_NE(d.find("sa1"), std::string::npos);
}

TEST(Faults, FaultsOnNetsSubset) {
  const auto faults = faults_on_nets({3, 7});
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0].net, 3u);
  EXPECT_TRUE(faults[1].stuck_value);
}

}  // namespace
}  // namespace stc
