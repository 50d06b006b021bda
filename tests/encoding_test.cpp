// Tests for state assignment and the encoded specifications (src/encoding).

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "util/bitvec.hpp"

#include "encoding/encoded_fsm.hpp"
#include "fsm/generate.hpp"

namespace stc {
namespace {

TEST(Encoding, NaturalIsValidMinimalWidth) {
  const Encoding e = natural_encoding(5);
  EXPECT_EQ(e.width, 3u);
  EXPECT_TRUE(e.valid());
  EXPECT_EQ(e.code_of(4), 4u);
}

TEST(Encoding, GrayAdjacentCodesDifferInOneBit) {
  const Encoding e = gray_encoding(8);
  EXPECT_TRUE(e.valid());
  for (std::size_t k = 1; k < 8; ++k)
    EXPECT_EQ(popcount64(e.codes[k] ^ e.codes[k - 1]), 1) << k;
}

TEST(Encoding, PairEncodingConcatenatesBlockCodes) {
  // The Figure-6 pair of the paper's example: pi = {0,1}{2,3},
  // tau = {0,3}{1,2}; codes are (pi-block << 1) | tau-block.
  const auto pi = Partition::from_blocks(4, {{0, 1}, {2, 3}});
  const auto tau = Partition::from_blocks(4, {{0, 3}, {1, 2}});
  const Encoding e = pair_encoding(pi, tau);
  EXPECT_EQ(e.width, 2u);
  EXPECT_TRUE(e.valid());
  EXPECT_EQ(e.code_of(0), 0b00u);
  EXPECT_EQ(e.code_of(1), 0b01u);
  EXPECT_EQ(e.code_of(2), 0b11u);
  EXPECT_EQ(e.code_of(3), 0b10u);
}

TEST(Encoding, PairEncodingRejectsNonSeparatingPairs) {
  // meet = {0,1}{2,3} != identity: states 0 and 1 would share a code.
  const auto pi = Partition::from_blocks(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(pair_encoding(pi, pi), std::invalid_argument);
  EXPECT_THROW(pair_encoding(pi, Partition::identity(3)), std::invalid_argument);
}

TEST(Encoding, PairEncodingIdentityFactorsKeepMinimumWidth) {
  // A universal factor still gets one bit so the register is realizable.
  const auto id = Partition::identity(4);
  const auto uni = Partition::universal(4);
  const Encoding e = pair_encoding(id, uni);
  EXPECT_EQ(e.width, 3u);  // 2 bits for pi, forced 1 bit for tau
  EXPECT_TRUE(e.valid());
}

TEST(Encoding, OneHotShape) {
  const Encoding e = one_hot_encoding(6);
  EXPECT_EQ(e.width, 6u);
  EXPECT_TRUE(e.valid());
  for (auto c : e.codes) EXPECT_EQ(popcount64(c), 1);
  EXPECT_THROW(one_hot_encoding(65), std::invalid_argument);
}

TEST(Encoding, ValidRejectsDuplicatesAndOverflow) {
  Encoding e;
  e.width = 2;
  e.codes = {0, 1, 1};
  EXPECT_FALSE(e.valid());
  e.codes = {0, 1, 4};  // 4 needs 3 bits
  EXPECT_FALSE(e.valid());
}

TEST(Encoding, GreedyBeatsOrMatchesNaturalObjective) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const MealyMachine m = random_mealy(seed, 8, 2, 2);
    const Encoding nat = natural_encoding(8);
    const Encoding greedy = greedy_adjacency_encoding(m, 4, seed);
    EXPECT_TRUE(greedy.valid());
    EXPECT_EQ(greedy.width, nat.width);
    EXPECT_LE(encoding_objective(m, greedy), encoding_objective(m, nat))
        << "seed " << seed;
  }
}

TEST(Encoding, GreedyDeterministicForSeed) {
  const MealyMachine m = random_mealy(3, 7, 2, 2);
  const Encoding a = greedy_adjacency_encoding(m, 4, 9);
  const Encoding b = greedy_adjacency_encoding(m, 4, 9);
  EXPECT_EQ(a.codes, b.codes);
}

// --- encoded machine tables ----------------------------------------------------

class EncodedFsmCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodedFsmCheck, TablesMatchMachine) {
  const MealyMachine m = random_mealy(GetParam(), 6, 4, 4);
  const Encoding enc = natural_encoding(m.num_states());
  const EncodedFsm e = encode_fsm(m, enc);
  ASSERT_EQ(e.next_state.size(), enc.width);
  ASSERT_EQ(e.outputs.size(), m.effective_output_bits());

  for (State s = 0; s < m.num_states(); ++s) {
    for (Input i = 0; i < m.num_inputs(); ++i) {
      const Minterm mt = (enc.code_of(s) << e.input_bits) | i;
      const std::uint64_t next_code = enc.code_of(m.next(s, i));
      for (std::size_t b = 0; b < enc.width; ++b) {
        EXPECT_FALSE(e.next_state[b].is_dc(mt));
        EXPECT_EQ(e.next_state[b].is_on(mt), ((next_code >> b) & 1) != 0);
      }
      for (std::size_t b = 0; b < e.output_bits; ++b)
        EXPECT_EQ(e.outputs[b].is_on(mt), ((m.output(s, i) >> b) & 1) != 0);
    }
  }
}

TEST_P(EncodedFsmCheck, UnusedCodesAreDontCare) {
  const MealyMachine m = random_mealy(GetParam() + 50, 5, 2, 2);  // 5 < 2^3
  const EncodedFsm e = encode_fsm(m, natural_encoding(5));
  // Codes 5, 6, 7 are unused: all their minterms must be DC.
  for (std::uint64_t code = 5; code < 8; ++code) {
    for (std::uint64_t in = 0; in < 2; ++in) {
      const Minterm mt = (code << e.input_bits) | in;
      for (const auto& t : e.next_state) EXPECT_TRUE(t.is_dc(mt));
      for (const auto& t : e.outputs) EXPECT_TRUE(t.is_dc(mt));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodedFsmCheck, ::testing::Range<std::uint64_t>(0, 6));

TEST(EncodedFsm, MismatchedEncodingRejected) {
  const MealyMachine m = random_mealy(1, 4, 2, 2);
  EXPECT_THROW(encode_fsm(m, natural_encoding(5)), std::invalid_argument);
  Encoding bad = natural_encoding(4);
  bad.codes[1] = bad.codes[0];
  EXPECT_THROW(encode_fsm(m, bad), std::invalid_argument);
}

/// ON and DC output masks of `spec` at minterm `m`.
std::pair<std::uint64_t, std::uint64_t> spec_at(const PlaSpec& spec, Minterm m) {
  std::uint64_t on = 0, dc = 0;
  for (const MCube& c : spec.on.cubes())
    if (c.in.contains_minterm(m)) on |= c.out;
  for (const MCube& c : spec.dc.cubes())
    if (c.in.contains_minterm(m)) dc |= c.out;
  return {on, dc};
}

/// At minterm `m`, every output of `spec` is DC (`expect` empty) or ON
/// exactly where `expect` has a 1 -- never both, never DC on a care point.
void expect_spec_at(const PlaSpec& spec, Minterm m, std::optional<std::uint64_t> expect) {
  const auto [on, dc] = spec_at(spec, m);
  const std::uint64_t all = (std::uint64_t{1} << spec.num_outputs) - 1;
  if (!expect) {
    EXPECT_EQ(on, 0u) << "minterm " << m;
    EXPECT_EQ(dc, all) << "minterm " << m;
  } else {
    EXPECT_EQ(dc, 0u) << "minterm " << m;
    EXPECT_EQ(on, *expect & all) << "minterm " << m;
  }
}

TEST(EncodedFactor, FactorTableRoundTrip) {
  // delta1-style table: 3 domain states x 3 inputs -> 2 range states. Code
  // 3 of the domain and input pattern 3 are unused: don't-cares.
  const std::vector<State> table{0, 1, 1, 0, 1, 1, 1, 0, 0};
  const Encoding dom = natural_encoding(3);
  const Encoding rng = natural_encoding(2);
  const EncodedFactor f = encode_factor(table, 3, 2, dom, rng);
  ASSERT_EQ(f.spec.num_vars, 4u);
  ASSERT_EQ(f.spec.num_outputs, 1u);
  for (Minterm mt = 0; mt < 16; ++mt) {
    const std::uint64_t code = mt >> 2, in = mt & 3;
    if (code >= 3 || in >= 3) {
      expect_spec_at(f.spec, mt, std::nullopt);
      continue;
    }
    const State s = static_cast<State>(code);  // natural codes
    expect_spec_at(f.spec, mt, rng.code_of(table[s * 3 + in]));
  }
  EXPECT_THROW(encode_factor(table, 3, 1, dom, rng), std::invalid_argument);
}

TEST(EncodedLambda, LambdaTableRoundTrip) {
  // 3 x 2 blocks, 3 inputs on 2 bits, 2 output bits. R1 code 3 and input
  // pattern 3 are unused: don't-cares.
  std::vector<Output> lambda(3 * 2 * 3);
  for (std::size_t k = 0; k < lambda.size(); ++k)
    lambda[k] = static_cast<Output>((k * 7) % 4);
  const Encoding e1 = natural_encoding(3), e2 = natural_encoding(2);
  const EncodedLambda el = encode_lambda(lambda, 3, 2, 3, 2, 2, e1, e2);
  ASSERT_EQ(el.spec.num_vars, 5u);
  ASSERT_EQ(el.spec.num_outputs, 2u);
  // Variable order, low to high: inputs, then R2 bits, then R1 bits.
  for (Minterm mt = 0; mt < 32; ++mt) {
    const std::uint64_t in = mt & 3, b2 = (mt >> 2) & 1, b1 = mt >> 3;
    if (b1 >= 3 || in >= 3) {
      expect_spec_at(el.spec, mt, std::nullopt);
      continue;
    }
    expect_spec_at(el.spec, mt, lambda[(b1 * 2 + b2) * 3 + in]);
  }
}

}  // namespace
}  // namespace stc
