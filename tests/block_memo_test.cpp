// Block sharing across structures: figs. 1-3 take their combined block C
// from the EncodedFsm's memo (logic/block.hpp).
//
// The properties that matter:
//   * sharing changes no netlist: every fig1-3 build from one shared
//     EncodedFsm equals the same build from a fresh encode_fsm, in cost
//     and word for word in simulation;
//   * C is minimized once and factored once per machine across the six
//     builds, and a fresh encode_fsm minimizes again;
//   * the widest block an encoder makes (36 outputs, reaching the high
//     half of the output part) is factored too, and its multi-level figs
//     equal their two-level twins word for word; a spec that lacks
//     outputs is rejected;
//   * a result a deadline cut is never stored, so a later unlimited build
//     gets the full-quality block; one cut at its work allowance is stored
//     and served, labels and all, under the same allowance;
//   * concurrent builds from one EncodedFsm are safe (the TSan job runs
//     this suite).

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "benchdata/iwls93.hpp"
#include "bist/architectures.hpp"
#include "encoding/encoding.hpp"
#include "fsm/generate.hpp"
#include "netlist/eval64.hpp"
#include "ostr/ostr.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

using BuildFn =
    std::function<ControllerStructure(const EncodedFsm&, Technology, const Budget&)>;

const BuildFn kFigs[] = {
    [](const EncodedFsm& e, Technology t, const Budget& b) { return build_fig1(e, t, b); },
    [](const EncodedFsm& e, Technology t, const Budget& b) { return build_fig2(e, t, b); },
    [](const EncodedFsm& e, Technology t, const Budget& b) { return build_fig3(e, t, b); },
};

EncodedFsm encode(const MealyMachine& m) {
  return encode_fsm(m, natural_encoding(m.num_states()));
}

void expect_same_cost(const LogicCost& a, const LogicCost& b) {
  EXPECT_EQ(a.tech, b.tech);
  EXPECT_EQ(a.cubes, b.cubes);
  EXPECT_EQ(a.literals, b.literals);
  EXPECT_EQ(a.gate_equivalents, b.gate_equivalents);
}

/// Both netlists driven with the same random input words (64 lanes) from
/// reset: every output and every next-state word must agree each cycle.
void expect_word_for_word_equal(const Netlist& a, const Netlist& b,
                                std::size_t cycles, std::uint64_t seed) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  ASSERT_EQ(a.num_dffs(), b.num_dffs());
  const CompiledNetlist ca(a), cb(b);
  std::vector<std::uint64_t> in(a.num_inputs());
  std::vector<std::uint64_t> da(a.num_dffs()), db(b.num_dffs());
  for (std::size_t k = 0; k < a.num_dffs(); ++k) {
    da[k] = a.gate(a.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    db[k] = b.gate(b.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    ASSERT_EQ(da[k], db[k]) << "reset state differs at dff " << k;
  }
  std::vector<std::uint64_t> va(a.num_nets()), vb(b.num_nets());
  Rng rng(seed);
  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    for (auto& w : in) w = rng.next();
    ca.evaluate(in.data(), da.data(), va.data());
    cb.evaluate(in.data(), db.data(), vb.data());
    for (std::size_t o = 0; o < a.num_outputs(); ++o)
      ASSERT_EQ(va[a.outputs()[o]], vb[b.outputs()[o]])
          << "cycle " << cyc << " output " << o;
    for (std::size_t k = 0; k < a.num_dffs(); ++k) {
      da[k] = va[ca.dff_d(k)];
      db[k] = vb[cb.dff_d(k)];
      ASSERT_EQ(da[k], db[k]) << "cycle " << cyc << " next-state bit " << k;
    }
  }
}

void expect_same_structure(const ControllerStructure& shared,
                           const ControllerStructure& fresh) {
  EXPECT_EQ(shared.nl.area_ge(), fresh.nl.area_ge());
  EXPECT_EQ(shared.nl.num_nets(), fresh.nl.num_nets());
  expect_same_cost(shared.logic, fresh.logic);
  ASSERT_EQ(shared.logic_ml.has_value(), fresh.logic_ml.has_value());
  if (shared.logic_ml) expect_same_cost(*shared.logic_ml, *fresh.logic_ml);
  EXPECT_EQ(shared.factored_nodes, fresh.factored_nodes);
  EXPECT_EQ(shared.degradations.size(), fresh.degradations.size());
  expect_word_for_word_equal(shared.nl, fresh.nl, 32, 0xB10C);
}

// --- (a) shared builds equal fresh builds, corpus-wide ------------------------

class SharedBlockCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(SharedBlockCorpus, SharedEncodingBuildsEqualFreshOnes) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm shared = encode(m);
  // s1's factoring takes seconds per build; its multi-level fig1 is pinned
  // by CorpusTechEquivalence, so only its two-level builds run here.
  const bool ml = GetParam() != "s1";
  for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel}) {
    if (tech == Technology::kMultiLevel && !ml) continue;
    for (std::size_t f = 0; f < 3; ++f) {
      SCOPED_TRACE("fig" + std::to_string(f + 1) + " " + technology_name(tech));
      const ControllerStructure a = kFigs[f](shared, tech, {});
      const ControllerStructure b = kFigs[f](encode(m), tech, {});
      expect_same_structure(a, b);
    }
  }
  const BlockMemo::Stats st = shared.block_memo->stats();
  EXPECT_EQ(st.minimizations, 1u);
  EXPECT_EQ(st.factorings, ml ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, SharedBlockCorpus,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- (b) one minimization and one factoring per machine -----------------------

TEST(BlockMemo, SixBuildsMinimizeAndFactorOnce) {
  const MealyMachine m = load_benchmark("bbara");
  const EncodedFsm enc = encode(m);
  for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel})
    for (const BuildFn& fig : kFigs) fig(enc, tech, {});
  const BlockMemo::Stats st = enc.block_memo->stats();
  EXPECT_EQ(st.minimizations, 1u);
  EXPECT_EQ(st.factorings, 1u);
  // fig2/3 two-level reuse C (2), the three multi-level builds reuse it
  // too (3), and fig2/3 multi-level reuse its factoring (2).
  EXPECT_EQ(st.hits, 7u);

  // Copies share the memo; a new encode_fsm of the same machine does not.
  const EncodedFsm copy = enc;
  build_fig2(copy);
  EXPECT_EQ(enc.block_memo->stats().minimizations, 1u);
  const EncodedFsm again = encode(m);
  build_fig2(again);
  EXPECT_EQ(again.block_memo->stats().minimizations, 1u);
  EXPECT_EQ(enc.block_memo->stats().minimizations, 1u);
}

TEST(BlockMemo, WorkAllowanceIsPartOfTheKey) {
  // Work-limited stages are deterministic in their allowance, so each
  // allowance is its own entry, and a served block equals what a fresh
  // encoding builds under the same allowance.
  const MealyMachine m = load_benchmark("dk16");
  const EncodedFsm enc = encode(m);
  for (const std::uint64_t w : {1u, 4u, 1000u}) {
    SCOPED_TRACE("work_limit " + std::to_string(w));
    const Budget b = Budget::work_limit(w);
    build_fig1(enc, Technology::kMultiLevel, b);
    const ControllerStructure got = build_fig3(enc, Technology::kMultiLevel, b);
    const ControllerStructure ref = build_fig3(encode(m), Technology::kMultiLevel, b);
    expect_same_structure(got, ref);
  }
  build_fig2(enc);
  EXPECT_GE(enc.block_memo->stats().minimizations, 4u);
}

TEST(BlockMemo, HandBuiltEncodingGetsItsOwnMemo) {
  const MealyMachine m = load_benchmark("dk27");
  const EncodedFsm ref = encode(m);
  // Filled field by field instead of by encode_fsm: it still has a memo,
  // and not the one of the encoding it was filled from.
  EncodedFsm hand;
  hand.state_bits = ref.state_bits;
  hand.input_bits = ref.input_bits;
  hand.output_bits = ref.output_bits;
  hand.reset_code = ref.reset_code;
  hand.next_state = ref.next_state;
  hand.outputs = ref.outputs;
  hand.spec = ref.spec;
  ASSERT_NE(hand.block_memo, nullptr);
  EXPECT_NE(hand.block_memo, ref.block_memo);
  for (const BuildFn& fig : kFigs)
    expect_same_structure(fig(hand, Technology::kMultiLevel, {}),
                          fig(ref, Technology::kMultiLevel, {}));
  EXPECT_EQ(hand.block_memo->stats().minimizations, 1u);
  EXPECT_EQ(ref.block_memo->stats().minimizations, 1u);
}

// --- (b') the widest block an encoder makes ------------------------------------

TEST(BlockMemo, WidestEncodableBlockIsFactoredAndMatchesTwoLevel) {
  // A random 12-state machine with 32 output bits (KISS2's limit), so C
  // has 4 + 32 = 36 outputs and its top output bits sit in the high half
  // of the 64-bit output part. Output symbols stay below kNoOutput.
  const MealyMachine m = random_mealy(0x36, 12, 4, (std::uint64_t{1} << 32) - 1);
  const EncodedFsm enc = encode(m);
  ASSERT_EQ(enc.output_bits, 32u);
  ASSERT_GT(enc.spec.num_outputs, 32u);
  ASSERT_EQ(enc.spec.num_outputs, enc.state_bits + enc.output_bits);
  std::uint64_t high = 0;
  for (const MCube& c : enc.spec.on.cubes()) high |= c.out >> 32;
  ASSERT_NE(high, 0u) << "no ON row reaches the high half of the output part";

  OstrOptions opts;
  opts.max_nodes = 4000;
  const OstrResult res = solve_ostr(m, opts);
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  for (std::size_t f = 0; f < 4; ++f) {
    SCOPED_TRACE("fig" + std::to_string(f + 1));
    const auto build = [&](Technology tech) {
      return f < 3 ? kFigs[f](enc, tech, {}) : build_fig4(m, real, tech);
    };
    const ControllerStructure two = build(Technology::kTwoLevel);
    const ControllerStructure multi = build(Technology::kMultiLevel);
    ASSERT_EQ(multi.po.size(), 32u);
    ASSERT_TRUE(multi.logic_ml.has_value());
    EXPECT_EQ(multi.logic_ml->tech, Technology::kMultiLevel);
    EXPECT_GT(multi.factored_nodes, 0u);
    expect_word_for_word_equal(two.nl, multi.nl, 64, 0x36);
  }
}

TEST(BlockMemo, SpecMissingOutputsIsRejected) {
  // C is built from the spec alone, so a hand-built encoding whose spec
  // lacks outputs (here: none at all, then the output bits) is a typed
  // error, not a build that indexes past the block's nets.
  const EncodedFsm ref = encode(load_benchmark("dk27"));
  EncodedFsm empty;
  empty.state_bits = ref.state_bits;
  empty.input_bits = ref.input_bits;
  empty.output_bits = ref.output_bits;
  empty.reset_code = ref.reset_code;
  EncodedFsm next_only = empty;
  next_only.block_memo = std::make_shared<BlockMemo>();
  next_only.spec.num_vars = ref.spec.num_vars;
  next_only.spec.num_outputs = ref.state_bits;
  next_only.spec.on = CubeList(ref.spec.num_vars, ref.state_bits);
  next_only.spec.dc = CubeList(ref.spec.num_vars, ref.state_bits);
  const std::uint64_t next_mask = (std::uint64_t{1} << ref.state_bits) - 1;
  for (const MCube& c : ref.spec.on.cubes())
    if (c.out & next_mask) next_only.spec.on.add(c.in, c.out & next_mask);
  for (const MCube& c : ref.spec.dc.cubes()) next_only.spec.dc.add(c.in, c.out & next_mask);
  for (const EncodedFsm* enc : {&empty, &next_only}) {
    for (const BuildFn& fig : kFigs) {
      EXPECT_THROW(fig(*enc, Technology::kTwoLevel, {}), std::invalid_argument);
      EXPECT_THROW(fig(*enc, Technology::kMultiLevel, {}), std::invalid_argument);
    }
  }
}

// --- (c) degraded results are never stored ------------------------------------

TEST(BlockMemo, DegradedMinimizationIsNotServedToUnlimitedBuild) {
  const MealyMachine m = load_benchmark("dk16");
  const EncodedFsm enc = encode(m);
  const ControllerStructure starved =
      build_fig1(enc, Technology::kMultiLevel, Budget::deadline_ms(0));
  ASSERT_FALSE(starved.degradations.empty());

  const ControllerStructure full = build_fig2(enc, Technology::kMultiLevel);
  EXPECT_TRUE(full.degradations.empty()) << render_degradations(full.degradations);
  expect_same_structure(full, build_fig2(encode(m), Technology::kMultiLevel));
  const BlockMemo::Stats st = enc.block_memo->stats();
  EXPECT_EQ(st.minimizations, 2u);  // the starved run stored nothing
  EXPECT_EQ(st.factorings, 2u);     // neither did its starved factoring
}

TEST(BlockMemo, DegradedFactoringIsNotServedToUnlimitedBuild) {
  const MealyMachine m = load_benchmark("dk16");
  const EncodedFsm enc = encode(m);
  // A complete two-level C, then a factoring cut by its deadline (same
  // key: a deadline leaves the work allowance unlimited).
  build_fig1(enc, Technology::kTwoLevel);
  const ControllerStructure starved =
      build_fig1(enc, Technology::kMultiLevel, Budget::deadline_ms(0));
  // The served two-level C adds no label. The multi-level stage does: it
  // minimizes one espresso cover per output, then factors them.
  const std::size_t outputs = enc.next_state.size() + enc.outputs.size();
  ASSERT_EQ(starved.degradations.size(), outputs + 1)
      << render_degradations(starved.degradations);
  for (std::size_t k = 0; k < outputs; ++k)
    EXPECT_EQ(starved.degradations[k].stage, "espresso");
  EXPECT_EQ(starved.degradations.back().stage, "factor");

  const ControllerStructure full = build_fig3(enc, Technology::kMultiLevel);
  EXPECT_TRUE(full.degradations.empty()) << render_degradations(full.degradations);
  expect_same_structure(full, build_fig3(encode(m), Technology::kMultiLevel));
  const BlockMemo::Stats st = enc.block_memo->stats();
  EXPECT_EQ(st.minimizations, 1u);
  EXPECT_EQ(st.factorings, 2u);
}

TEST(BlockMemo, BlockCutAtItsWorkAllowanceIsStoredWithItsLabels) {
  // A work-limited stage is deterministic in its allowance, and the
  // allowance is the key: the cut block is stored and served, labels and
  // all, to the next build under the same allowance.
  const MealyMachine m = load_benchmark("dk16");
  const EncodedFsm enc = encode(m);
  const Budget limited = Budget::work_limit(1);
  const ControllerStructure cut = build_fig1(enc, Technology::kMultiLevel, limited);
  ASSERT_FALSE(cut.degradations.empty());
  for (const Degradation& d : cut.degradations) EXPECT_EQ(d.reason, "work-allowance");

  const ControllerStructure served = build_fig2(enc, Technology::kMultiLevel, limited);
  BlockMemo::Stats st = enc.block_memo->stats();
  EXPECT_EQ(st.minimizations, 1u);
  EXPECT_EQ(st.factorings, 1u);
  EXPECT_EQ(st.hits, 2u);
  const ControllerStructure fresh =
      build_fig2(encode(m), Technology::kMultiLevel, limited);
  expect_same_structure(served, fresh);
  EXPECT_EQ(render_degradations(served.degradations),
            render_degradations(fresh.degradations));

  // An unlimited build is another key: it minimizes and factors again.
  const ControllerStructure full = build_fig2(enc, Technology::kMultiLevel);
  EXPECT_TRUE(full.degradations.empty()) << render_degradations(full.degradations);
  st = enc.block_memo->stats();
  EXPECT_EQ(st.minimizations, 2u);
  EXPECT_EQ(st.factorings, 2u);
}

TEST(BlockMemo, CompleteResultIsServedToAnyDeadline) {
  const MealyMachine m = load_benchmark("dk16");
  const EncodedFsm enc = encode(m);
  const ControllerStructure full = build_fig1(enc, Technology::kMultiLevel);
  ASSERT_TRUE(full.degradations.empty());
  const ControllerStructure served =
      build_fig1(enc, Technology::kMultiLevel, Budget::deadline_ms(0));
  EXPECT_TRUE(served.degradations.empty());
  expect_same_structure(served, full);
}

// --- (d) concurrent builds from one EncodedFsm --------------------------------

TEST(BlockMemo, ConcurrentBuildsFromOneEncodingAgree) {
  const MealyMachine m = load_benchmark("dk14");
  const EncodedFsm enc = encode(m);
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<ControllerStructure>> built(kThreads);
  std::vector<std::thread> pool;
  std::atomic<std::size_t> ready{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&enc, &built, &ready, t] {
      // Start together so the first lookups race; each thread then walks
      // the six builds from a different start.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t k = 0; k < 6; ++k) {
        const std::size_t i = (t + k) % 6;
        const Technology tech =
            i < 3 ? Technology::kTwoLevel : Technology::kMultiLevel;
        built[t].push_back(kFigs[i % 3](enc, tech, {}));
      }
    });
  }
  for (std::thread& th : pool) th.join();

  std::vector<ControllerStructure> ref;
  for (std::size_t i = 0; i < 6; ++i)
    ref.push_back(kFigs[i % 3](
        encode(m), i < 3 ? Technology::kTwoLevel : Technology::kMultiLevel, {}));
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t k = 0; k < 6; ++k) {
      SCOPED_TRACE("thread " + std::to_string(t) + " build " + std::to_string(k));
      expect_same_structure(built[t][k], ref[(t + k) % 6]);
    }
  const BlockMemo::Stats st = enc.block_memo->stats();
  EXPECT_GE(st.minimizations, 1u);
  EXPECT_LE(st.minimizations, kThreads);
  EXPECT_EQ(st.minimizations + st.factorings + st.hits, kThreads * 9);
}

}  // namespace
}  // namespace stc
