// Multi-level synthesis layer: algebraic division identities, kernel
// goldens, greedy extraction, and the corpus-wide technology-equivalence
// harness.
//
// The load-bearing property is that a multi_level netlist is simulation-
// equivalent to its two_level twin. Algebraic division is an identity on
// cube sets, so the factored network computes exactly its per-output
// espresso covers; those and the two-level PLA implement the same
// specification and may differ only on don't-cares: unused state codes,
// which no run from reset reaches, and padding input patterns, which no
// corpus machine has. The 64-lane engines must therefore produce
// word-for-word identical outputs and next-state from reset under random
// stimulus. The CorpusTechEquivalence
// suites below pin that for every bundled KISS machine on the fig-1 and
// fig-4 architectures; CI refuses to pass when they are filtered out.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "benchdata/iwls93.hpp"
#include "bist/architectures.hpp"
#include "bist/session.hpp"
#include "logic/cost.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/factor.hpp"
#include "logic/pair_queue.hpp"
#include "netlist/eval64.hpp"
#include "ostr/ostr.hpp"
#include "synth/flow.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

FCube fc(std::initializer_list<LitId> lits) { return FCube(lits); }

SopExpr sop(std::initializer_list<FCube> cubes) {
  SopExpr s;
  s.cubes.assign(cubes);
  s.normalize();
  return s;
}

/// Boolean form of an input-literal-only SopExpr (no node references).
Cover cover_from_sop(const SopExpr& s, std::size_t num_vars) {
  Cover out(num_vars);
  for (const FCube& c : s.cubes) {
    Cube q;
    for (LitId l : c) {
      const std::uint64_t bit = std::uint64_t{1} << (l / 2);
      q.care |= bit;
      if (!(l & 1)) q.value |= bit;
    }
    out.add(q);
  }
  return out;
}

/// XOR-style mutual containment via the unate-recursive tautology check.
bool equivalent_covers(const Cover& a, const Cover& b) {
  return cover_contains_cover(a, b) && cover_contains_cover(b, a);
}

/// quotient * divisor + remainder, re-expanded as a plain cube set.
SopExpr reexpand(const DivisionResult& d, const SopExpr& divisor) {
  SopExpr out;
  for (const FCube& qc : d.quotient.cubes)
    for (const FCube& dc : divisor.cubes) {
      FCube u;
      std::set_union(qc.begin(), qc.end(), dc.begin(), dc.end(),
                     std::back_inserter(u));
      out.cubes.push_back(std::move(u));
    }
  for (const FCube& rc : d.remainder.cubes) out.cubes.push_back(rc);
  out.normalize();
  return out;
}

// --- algebraic division ------------------------------------------------------

// Variables a..g as positive literals.
constexpr LitId A = 0, B = 2, C = 4, D = 6, E = 8, F = 10, G = 12;

TEST(AlgebraicDivision, TextbookQuotientAndRemainder) {
  // f = ac + ad + bc + bd + e,  d = a + b  ->  q = c + d, r = e.
  const SopExpr f = sop({{A, C}, {A, D}, {B, C}, {B, D}, {E}});
  const SopExpr div = sop({{A}, {B}});
  const DivisionResult res = divide(f, div);
  EXPECT_EQ(res.quotient, sop({{C}, {D}}));
  EXPECT_EQ(res.remainder, sop({{E}}));
  EXPECT_EQ(reexpand(res, div), f);
}

TEST(AlgebraicDivision, NonDivisorYieldsEmptyQuotient) {
  const SopExpr f = sop({{A, C}, {B, D}});
  const SopExpr div = sop({{A}, {B}});  // b*q would need bd's partner ac/b
  const DivisionResult res = divide(f, div);
  EXPECT_TRUE(res.quotient.cubes.empty());
  EXPECT_EQ(res.remainder, f);
}

TEST(AlgebraicDivision, WholeFunctionDivisorGivesUnitQuotient) {
  const SopExpr f = sop({{A, C}, {B, C}});
  const DivisionResult res = divide(f, f);
  EXPECT_EQ(res.quotient, sop({FCube{}}));  // the literal-free cube
  EXPECT_TRUE(res.remainder.cubes.empty());
}

TEST(AlgebraicDivision, QuotientByCube) {
  const SopExpr f = sop({{A, B, C}, {A, B, D}, {A, E}});
  const auto q = quotient_by_cube(f, fc({A, B}));
  EXPECT_EQ(q, std::vector<FCube>({{C}, {D}}));
  EXPECT_EQ(common_cube(q), FCube{});
  EXPECT_EQ(common_cube(f.cubes), fc({A}));
}

/// Randomized property: for random covers and divisors drawn from their
/// own kernel sets, quotient * divisor + remainder re-expands to exactly
/// the original cube set, and to a boolean-equivalent cover (mutual
/// containment via is_tautology).
/// One random division problem: a normalized SOP f over 4..8 variables
/// and its divisors, every kernel of f plus a random unrelated cover.
struct RandomDivision {
  std::size_t num_vars;
  SopExpr f;
  std::vector<SopExpr> divisors;
};

RandomDivision random_division(Rng& rng) {
  RandomDivision r;
  r.num_vars = 4 + rng.below(5);  // 4..8
  const std::size_t cubes = 2 + rng.below(10);
  for (std::size_t i = 0; i < cubes; ++i) {
    FCube c;
    for (std::size_t v = 0; v < r.num_vars; ++v) {
      if (rng.chance(0.45))
        c.push_back(rng.chance(0.5) ? pos_lit(v) : neg_lit(v));
    }
    r.f.cubes.push_back(std::move(c));
  }
  r.f.normalize();

  for (Kernel& k : enumerate_kernels(r.f)) r.divisors.push_back(std::move(k.kernel));
  SopExpr d;
  for (int i = 0; i < 3; ++i) {
    FCube c;
    for (std::size_t v = 0; v < r.num_vars; ++v)
      if (rng.chance(0.3))
        c.push_back(rng.chance(0.5) ? pos_lit(v) : neg_lit(v));
    d.cubes.push_back(std::move(c));
  }
  d.normalize();
  r.divisors.push_back(std::move(d));
  return r;
}

TEST(AlgebraicDivision, RandomReexpansionIsIdentity) {
  Rng rng(0xD1F1DE);
  for (int iter = 0; iter < 200; ++iter) {
    const RandomDivision r = random_division(rng);
    const SopExpr& f = r.f;
    const std::size_t num_vars = r.num_vars;
    const std::vector<SopExpr>& divisors = r.divisors;

    const Cover f_cover = cover_from_sop(f, num_vars);
    for (const SopExpr& d : divisors) {
      if (d.cubes.empty()) continue;
      const DivisionResult res = divide(f, d);
      ASSERT_EQ(reexpand(res, d), f) << "iter " << iter;
      ASSERT_TRUE(equivalent_covers(cover_from_sop(reexpand(res, d), num_vars),
                                    f_cover))
          << "iter " << iter;
    }
  }
}

/// The quotient step shared by kernel scoring and divide() gives divide()'s
/// quotient on the random SOPs above, equal to the textbook definition (the
/// intersection over divisor cubes of the single-cube quotients), and so
/// does any order of the dividend's cubes (the extractor rewrites cubes in
/// place).
TEST(AlgebraicDivision, QuotientMatchesDivide) {
  Rng rng(0xD1F1DE);
  for (int iter = 0; iter < 200; ++iter) {
    const RandomDivision r = random_division(rng);
    SopExpr shuffled = r.f;
    std::reverse(shuffled.cubes.begin(), shuffled.cubes.end());
    for (const SopExpr& d : r.divisors) {
      SopExpr reference;
      reference.cubes = quotient_by_cube(r.f, d.cubes.at(0));
      for (const FCube& dc : d.cubes) {
        const std::vector<FCube> by_cube = quotient_by_cube(r.f, dc);
        std::vector<FCube> both;
        std::set_intersection(reference.cubes.begin(), reference.cubes.end(),
                              by_cube.begin(), by_cube.end(),
                              std::back_inserter(both));
        reference.cubes = std::move(both);
      }
      const SopExpr q = divide(r.f, d).quotient;
      EXPECT_EQ(q, reference) << "iter " << iter;
      EXPECT_EQ(algebraic_quotient(r.f, d), q) << "iter " << iter;
      EXPECT_EQ(algebraic_quotient(shuffled, d), q) << "iter " << iter;
    }
  }
}

// --- kernels -----------------------------------------------------------------

TEST(Kernels, GoldenKernelSetOfTheClassicExample) {
  // f = adf + aef + bdf + bef + cdf + cef + g  (Brayton's example):
  // the kernel set must contain a+b+c (co-kernels df, ef), d+e
  // (co-kernels af, bf, cf), their product quotient by f, and f itself
  // (f is cube-free thanks to g).
  const SopExpr f = sop({{A, D, F}, {A, E, F}, {B, D, F}, {B, E, F},
                         {C, D, F}, {C, E, F}, {G}});
  std::set<std::vector<FCube>> kernels;
  std::set<std::vector<FCube>> cokernels_of_de;
  for (const Kernel& k : enumerate_kernels(f)) {
    kernels.insert(k.kernel.cubes);
    if (k.kernel == sop({{D}, {E}}))
      cokernels_of_de.insert({k.cokernel});
  }
  EXPECT_TRUE(kernels.count(sop({{A}, {B}, {C}}).cubes));
  EXPECT_TRUE(kernels.count(sop({{D}, {E}}).cubes));
  EXPECT_TRUE(kernels.count(
      sop({{A, D}, {A, E}, {B, D}, {B, E}, {C, D}, {C, E}}).cubes));
  EXPECT_TRUE(kernels.count(f.cubes));  // cube-free: its own kernel
  // d+e is produced by a 2-literal co-kernel like af (deduped to one rep).
  ASSERT_EQ(cokernels_of_de.size(), 1u);
  EXPECT_EQ((*cokernels_of_de.begin())[0].size(), 2u);
}

TEST(Kernels, CubeBoundFunctionHasNoKernelsBeyondQuotients) {
  // f = ab + ac = a(b + c): dividing out the common cube leaves b+c.
  const SopExpr f = sop({{A, B}, {A, C}});
  const auto kernels = enumerate_kernels(f);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].kernel, sop({{B}, {C}}));
  EXPECT_EQ(kernels[0].cokernel, fc({A}));
}

// --- extraction --------------------------------------------------------------

/// Exhaustive per-minterm equivalence of a factored network against the
/// PLA it came from.
void expect_factored_equivalent(const CubeList& pla, const FactoredNetwork& fn) {
  ASSERT_EQ(fn.num_outputs, pla.num_outputs());
  std::vector<bool> node_vals, out_vals;
  for (Minterm m = 0; m < (Minterm{1} << pla.num_vars()); ++m) {
    fn.evaluate_all(m, node_vals, out_vals);
    for (std::size_t b = 0; b < pla.num_outputs(); ++b)
      ASSERT_EQ(out_vals[b], pla.evaluate(m, b)) << "minterm " << m << " out " << b;
  }
}

TEST(Extraction, SharedCubeBecomesOneNode) {
  // Both outputs contain the product abc; extraction must leave a single
  // shared AND node referenced from both.
  CubeList pla(4, 2);
  pla.add(Cube::from_string("-111"), 0b01);  // abc (vars 0,1,2)
  pla.add(Cube::from_string("1111"), 0b10);  // abcd
  pla.add(Cube::from_string("0111"), 0b10);  // abc!d
  const FactoredNetwork fn = extract_factored(pla);
  expect_factored_equivalent(pla, fn);
  EXPECT_GE(fn.num_nodes(), 1u);
  // The expanded form has 3+4+4 = 11 literals; sharing abc caps it at 8.
  EXPECT_LE(fn.num_literals(), 8u);
}

TEST(Extraction, KernelIsSharedAcrossOutputs) {
  // f1 = ab + ac, f2 = db + dc: the kernel b+c is worth one node.
  CubeList pla(4, 2);
  pla.add(Cube::from_string("--11"), 0b01);   // ab
  pla.add(Cube::from_string("-1-1"), 0b01);   // ac
  pla.add(Cube::from_string("1-1-"), 0b10);   // db
  pla.add(Cube::from_string("11--"), 0b10);   // dc
  const FactoredNetwork fn = extract_factored(pla);
  expect_factored_equivalent(pla, fn);
  EXPECT_EQ(fn.num_nodes(), 1u);
  EXPECT_EQ(fn.nodes[0].cubes.size(), 2u);  // the OR node b+c
  EXPECT_EQ(fn.num_literals(), 6u);         // b+c, a*x, d*x
}

TEST(Extraction, ConstantAndEmptyOutputsSurvive) {
  CubeList pla(3, 3);
  pla.add(Cube::top(), 0b001);               // output 0 == 1
  pla.add(Cube::from_string("1--"), 0b100);  // output 2 = var 2
  // output 1 has no cubes: constant 0.
  const FactoredNetwork fn = extract_factored(pla);
  expect_factored_equivalent(pla, fn);
  EXPECT_TRUE(fn.outputs[1].cubes.empty());
  ASSERT_EQ(fn.outputs[0].cubes.size(), 1u);
  EXPECT_TRUE(fn.outputs[0].cubes[0].empty());
}

TEST(Extraction, RandomPlasStayEquivalentAndNeverGainLiterals) {
  Rng rng(0xFAC7);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t num_vars = 4 + rng.below(4);   // 4..7
    const std::size_t num_outs = 1 + rng.below(5);   // 1..5
    CubeList pla(num_vars, num_outs);
    const std::size_t cubes = 3 + rng.below(16);
    for (std::size_t i = 0; i < cubes; ++i) {
      Cube c;
      for (std::size_t v = 0; v < num_vars; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << v;
        if (rng.chance(0.6)) {
          c.care |= bit;
          if (rng.chance(0.5)) c.value |= bit;
        }
      }
      pla.add(c, 1 + rng.below((std::uint64_t{1} << num_outs) - 1));
    }
    pla.merge_identical_inputs();

    // Literal budget of the un-factored per-output expansion.
    std::size_t expanded = 0;
    for (const SopExpr& s : sops_from_cubelist(pla)) expanded += s.num_literals();

    const FactoredNetwork fn = extract_factored(pla);
    expect_factored_equivalent(pla, fn);
    EXPECT_LE(fn.num_literals(), expanded) << "iter " << iter;
  }
}

/// Random per-output covers factored under small step allowances and
/// without one: every stopping point computes exactly its covers.
TEST(Extraction, RandomCoversStayEquivalentUnderEveryStepLimit) {
  Rng rng(0xC0FE5);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t num_vars = 3 + rng.below(6);  // 3..8
    const std::size_t num_outs = 1 + rng.below(6);  // 1..6
    std::vector<Cover> covers(num_outs, Cover(num_vars));
    for (Cover& cover : covers) {
      const std::size_t cubes = rng.below(14);
      for (std::size_t i = 0; i < cubes; ++i) {
        Cube c;
        for (std::size_t v = 0; v < num_vars; ++v) {
          const std::uint64_t bit = std::uint64_t{1} << v;
          if (rng.chance(0.6)) {
            c.care |= bit;
            if (rng.chance(0.5)) c.value |= bit;
          }
        }
        cover.add(c);
      }
    }
    std::vector<Budget> budgets;
    for (const std::uint64_t k : {0u, 1u, 2u, 4u, 8u, 32u})
      budgets.push_back(Budget::work_limit(k));
    budgets.push_back(Budget::unlimited());
    for (const Budget& budget : budgets) {
      const FactoredNetwork fn = extract_factored(covers, budget);
      fn.check();
      std::vector<bool> node_vals, out_vals;
      for (Minterm m = 0; m < (Minterm{1} << num_vars); ++m) {
        fn.evaluate_all(m, node_vals, out_vals);
        for (std::size_t b = 0; b < num_outs; ++b)
          ASSERT_EQ(out_vals[b], covers[b].evaluate(m))
              << "iter " << iter << " allowance " << budget.work_allowance()
              << " minterm " << m << " output " << b;
      }
    }
  }
}

TEST(Extraction, EspressoOutputOfACorpusMachineFactorsSmaller) {
  const MealyMachine m = load_benchmark("dk14");
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const CubeList pla = minimize_espresso_mv(enc.spec);
  const FactoredNetwork fn = extract_factored(pla);

  std::vector<bool> node_vals, out_vals;
  Rng rng(0x914);
  for (int i = 0; i < 2000; ++i) {
    const Minterm mt = rng.below(Minterm{1} << pla.num_vars());
    fn.evaluate_all(mt, node_vals, out_vals);
    for (std::size_t b = 0; b < pla.num_outputs(); ++b)
      ASSERT_EQ(out_vals[b], pla.evaluate(mt, b));
  }
  // The factored form must beat the flat two-level literal count.
  EXPECT_LT(factored_cost(fn).literals, pla_cost(pla).literals);
  EXPECT_GT(fn.num_nodes(), 0u);
}

// --- the cube-divisor pair queue ---------------------------------------------

/// Brute-force top-k: every pair with count >= 2 outside `taken`, sorted by
/// (count desc, key desc).
std::vector<PairQueue::Key> oracle_top(
    const std::map<PairQueue::Key, int>& counts,
    const std::set<PairQueue::Key>& taken, std::size_t k) {
  std::vector<std::pair<int, PairQueue::Key>> live;
  for (const auto& [key, count] : counts)
    if (count >= 2 && !taken.count(key)) live.push_back({count, key});
  std::sort(live.rbegin(), live.rend());
  std::vector<PairQueue::Key> out;
  for (std::size_t i = 0; i < live.size() && i < k; ++i)
    out.push_back(live[i].second);
  return out;
}

std::size_t oracle_heap_size(const std::map<PairQueue::Key, int>& counts) {
  std::size_t n = 0;
  for (const auto& [key, count] : counts) n += count >= 2;
  return n;
}

TEST(PairQueue, ProbesMatchABruteForceRecount) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(0x9A1C + seed);
    PairQueue q;
    std::map<PairQueue::Key, int> counts;
    // A small key universe (collisions, drops to 0 and re-entries are
    // frequent) spread over the whole 64-bit key range.
    const std::size_t universe = 8 + rng.below(120);
    auto random_key = [&] {
      const std::uint64_t i = rng.below(universe);
      return (i << 32) | (i * 7 + 1);
    };
    auto step = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const PairQueue::Key key = random_key();
        const bool down = counts[key] > 0 && rng.chance(0.45);
        const int delta = down ? -1 : +1;
        q.add(key, delta);
        counts[key] += delta;
        ASSERT_EQ(q.count(key), static_cast<std::uint32_t>(counts[key]));
      }
    };
    step(40 + rng.below(400));  // bulk registration before the heapify
    q.build();
    ASSERT_EQ(q.heap_size(), oracle_heap_size(counts)) << "seed " << seed;
    for (int probe = 0; probe < 60; ++probe) {
      step(rng.below(30));
      ASSERT_EQ(q.heap_size(), oracle_heap_size(counts)) << "seed " << seed;

      const std::vector<PairQueue::Key> got = q.take(16);
      ASSERT_EQ(got, oracle_top(counts, {}, 16))
          << "seed " << seed << " probe " << probe;
      const std::set<PairQueue::Key> taken(got.begin(), got.end());
      EXPECT_EQ(taken.size(), got.size()) << "a pair returned twice";
      for (PairQueue::Key key : got) EXPECT_GE(counts[key], 2);

      // Count changes while the pairs are taken (the step's rewrite) reach
      // the taken pairs too, but a second probe must not return them.
      step(rng.below(30));
      ASSERT_EQ(q.take(4), oracle_top(counts, taken, 4));
      q.release();
    }
  }
}

TEST(PairQueue, EachLivePairHoldsOneEntryUnderChurn) {
  // The -1/+1 churn a cube rewrite applies to pairs it leaves unchanged
  // must not grow the heap.
  PairQueue q;
  for (PairQueue::Key key = 0; key < 50; ++key)
    for (int c = 0; c < 5; ++c) q.add(key, +1);
  q.build();
  for (int round = 0; round < 100; ++round)
    for (PairQueue::Key key = 0; key < 50; ++key) {
      q.add(key, -1);
      q.add(key, +1);
    }
  EXPECT_EQ(q.heap_size(), 50u);
  q.add(7, -4);  // count 1: leaves the heap
  EXPECT_EQ(q.heap_size(), 49u);
  q.add(7, -1);  // count 0: forgotten
  EXPECT_EQ(q.count(7), 0u);
  q.add(7, +2);  // back at 2
  EXPECT_EQ(q.heap_size(), 50u);
  const std::vector<PairQueue::Key> top = q.take(2);
  EXPECT_EQ(top, (std::vector<PairQueue::Key>{49, 48}));
}

TEST(Extraction, RepeatedRunsGiveIdenticalNetworks) {
  // The pair queue's first heapify walks a hash map; the probe order, and
  // so the network, must not depend on that walk.
  for (const std::string& name : benchmark_names()) {
    if (name == "s1") continue;  // seconds per factoring
    const MealyMachine m = load_benchmark(name);
    const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
    const CubeList pla = minimize_espresso_mv(enc.spec);
    const FactoredNetwork a = extract_factored(pla);
    const FactoredNetwork b = extract_factored(pla);
    EXPECT_EQ(a.nodes, b.nodes) << name;
    EXPECT_EQ(a.outputs, b.outputs) << name;
  }
}

TEST(Extraction, CoversFactorLikeTheirOneOutputPerCubePla) {
  // Per-output covers go straight to the extractor; a CubeList holding
  // one cube per (cover, cube) pair is the same input spelled as a PLA.
  for (const std::string& name : benchmark_names()) {
    if (name == "s1") continue;  // seconds per factoring
    const MealyMachine m = load_benchmark(name);
    const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
    const std::vector<Cover> covers = per_output_covers(enc.spec);
    CubeList pla(enc.num_vars(), covers.size());
    for (std::size_t b = 0; b < covers.size(); ++b)
      for (const Cube& c : covers[b].cubes()) pla.add(c, std::uint64_t{1} << b);
    const FactoredNetwork a = extract_factored(covers);
    const FactoredNetwork b = extract_factored(pla);
    EXPECT_EQ(a.num_vars, b.num_vars) << name;
    EXPECT_EQ(a.num_outputs, b.num_outputs) << name;
    EXPECT_EQ(a.nodes, b.nodes) << name;
    EXPECT_EQ(a.outputs, b.outputs) << name;
  }
}

TEST(Extraction, MixedCoverAritiesAreRejected) {
  EXPECT_THROW(extract_factored(std::vector<Cover>{Cover(3), Cover(4)}),
               std::invalid_argument);
}

TEST(Extraction, TruncatedFactoringReportsCompletedSteps) {
  // One work unit is one extraction step, so a factoring cut by a k-unit
  // allowance reports exactly k steps, whatever number of nodes survive.
  const MealyMachine m = load_benchmark("tbk");
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const CubeList pla = minimize_espresso_mv(enc.spec);
  for (const std::uint64_t k : {1u, 7u, 40u, 300u}) {
    Degradation deg;
    const FactoredNetwork fn = extract_factored(pla, Budget::work_limit(k), &deg);
    ASSERT_TRUE(deg.degraded) << k;
    EXPECT_EQ(deg.stage, "factor");
    EXPECT_EQ(deg.reason, "work-allowance");
    EXPECT_EQ(deg.work_done, k);
    EXPECT_NE(deg.detail.find(std::to_string(fn.num_nodes()) + " nodes"),
              std::string::npos)
        << deg.detail;
  }
  // An unbudgeted run is not degraded and still counts its steps.
  Degradation full;
  extract_factored(pla, Budget{}, &full);
  EXPECT_FALSE(full.degraded);
  EXPECT_GT(full.work_done, 300u);
}

// --- cost tagging (micro-fix) ------------------------------------------------

TEST(CostTechnology, FactoredCostIsTaggedMultiLevel) {
  CubeList pla(3, 1);
  pla.add(Cube::from_string("11-"), 1);
  const FactoredNetwork fn = extract_factored(pla);
  EXPECT_EQ(factored_cost(fn).tech, Technology::kMultiLevel);
  EXPECT_EQ(pla_cost(pla).tech, Technology::kTwoLevel);
  EXPECT_STREQ(technology_name(Technology::kTwoLevel), "two_level");
  EXPECT_STREQ(technology_name(Technology::kMultiLevel), "multi_level");
}

TEST(CostTechnology, MixingTechnologiesInOneAccumulationThrows) {
  CubeList pla(3, 1);
  pla.add(Cube::from_string("11-"), 1);
  const LogicCost two = pla_cost(pla);
  const LogicCost ml = factored_cost(extract_factored(pla));

  LogicCost total;       // zero accumulator adopts the first operand's tech
  total += ml;
  EXPECT_EQ(total.tech, Technology::kMultiLevel);
  EXPECT_THROW(total += two, std::logic_error);

  LogicCost total2;
  total2 += two;
  EXPECT_THROW(total2 += ml, std::logic_error);
}

// --- corpus-wide technology equivalence (the differential harness) -----------

ControllerStructure fig1_for(const std::string& name, Technology tech) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())), tech);
}

ControllerStructure fig4_for(const std::string& name, Technology tech) {
  const MealyMachine m = load_benchmark(name);
  OstrOptions opts;
  opts.max_nodes = 4000;  // budgeted: fig4 shape, not OSTR quality, matters
  const OstrResult res = solve_ostr(m, opts);
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  return build_fig4(m, real, tech);
}

/// Drive both netlists with identical pseudo-random 64-lane stimulus from
/// their reset states and require word-for-word identical primary outputs
/// and next-state (DFF D) words every cycle. The multi-level netlist is
/// additionally evaluated with the event-driven engine, which must agree
/// with its own flat evaluation on every net -- deep shared cones are
/// exactly what the fanout-cone scheduler did not see before this layer.
void expect_word_for_word_equivalent(const Netlist& two, const Netlist& multi,
                                     std::size_t cycles, std::uint64_t seed) {
  ASSERT_EQ(two.num_inputs(), multi.num_inputs());
  ASSERT_EQ(two.num_outputs(), multi.num_outputs());
  ASSERT_EQ(two.num_dffs(), multi.num_dffs());
  CompiledNetlist ca(two), cb(multi);
  EventScratch ev;

  std::vector<std::uint64_t> in(two.num_inputs(), 0);
  std::vector<std::uint64_t> da(two.num_dffs()), db(multi.num_dffs());
  for (std::size_t k = 0; k < two.num_dffs(); ++k) {
    da[k] = two.gate(two.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    db[k] = multi.gate(multi.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    ASSERT_EQ(da[k], db[k]) << "reset state differs at dff " << k;
  }
  std::vector<std::uint64_t> va(two.num_nets()), vb(multi.num_nets());

  Rng rng(seed);
  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    for (auto& w : in) w = rng.next();
    ca.evaluate(in.data(), da.data(), va.data());
    cb.evaluate(in.data(), db.data(), vb.data());
    cb.evaluate_event(in.data(), db.data(), ev);
    for (NetId id = 0; id < multi.num_nets(); ++id)
      ASSERT_EQ(ev.values[id], vb[id]) << "event engine, net " << id;
    for (std::size_t o = 0; o < two.num_outputs(); ++o)
      ASSERT_EQ(va[two.outputs()[o]], vb[multi.outputs()[o]])
          << "cycle " << cyc << " output " << o;
    for (std::size_t k = 0; k < two.num_dffs(); ++k) {
      da[k] = va[ca.dff_d(k)];
      db[k] = vb[cb.dff_d(k)];
      ASSERT_EQ(da[k], db[k]) << "cycle " << cyc << " next-state bit " << k;
    }
  }
}

class CorpusTechEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusTechEquivalence, Fig1MultiLevelMatchesTwoLevelWordForWord) {
  const ControllerStructure two = fig1_for(GetParam(), Technology::kTwoLevel);
  const ControllerStructure multi = fig1_for(GetParam(), Technology::kMultiLevel);
  EXPECT_EQ(multi.tech, Technology::kMultiLevel);
  ASSERT_TRUE(multi.logic_ml.has_value());
  EXPECT_EQ(multi.logic_ml->tech, Technology::kMultiLevel);
  expect_word_for_word_equivalent(two.nl, multi.nl, 48, 0xFAC1);
}

TEST_P(CorpusTechEquivalence, Fig4MultiLevelMatchesTwoLevelWordForWord) {
  const ControllerStructure two = fig4_for(GetParam(), Technology::kTwoLevel);
  const ControllerStructure multi = fig4_for(GetParam(), Technology::kMultiLevel);
  expect_word_for_word_equivalent(two.nl, multi.nl, 48, 0xFAC4);
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, CorpusTechEquivalence,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- the factoring input: one espresso cover per output ------------------------

/// Multi-level factoring starts from per_output_covers of each block's
/// spec. Each cover must implement its output's dense table, tabulated by
/// the test from the machine (C of figs. 1-3) or from the realization's
/// FactorTables (C1, C2 and lambda of fig. 4), and every cube must be prime
/// for its own output: no literal can be dropped without covering a
/// minterm of that output's OFF set (checked against the explicit OFF set
/// up to 8 variables).
void expect_covers_implement(const PlaSpec& spec, const std::vector<TruthTable>& tables,
                             const std::string& block) {
  SCOPED_TRACE(block);
  const std::vector<Cover> covers = per_output_covers(spec);
  ASSERT_EQ(covers.size(), tables.size());
  for (std::size_t b = 0; b < tables.size(); ++b) {
    EXPECT_TRUE(covers[b].implements(tables[b])) << "output " << b;
    if (spec.num_vars > 8) continue;
    const std::vector<Minterm> off = tables[b].off_minterms();
    for (const Cube& c : covers[b].cubes()) {
      EXPECT_TRUE(expand_against_off(c, off, spec.num_vars) == c)
          << "output " << b << ": a literal of a cube can be dropped";
    }
  }
}

/// Dense oracle of an encoded block: minterm (code << input_bits) | in is
/// a don't-care when `value` returns nothing (unused code, padding input),
/// else output b is bit b of the value.
template <typename Value>
std::vector<TruthTable> tabulate(std::size_t num_vars, std::size_t outputs,
                                 const Value& value) {
  std::vector<TruthTable> tables(outputs, TruthTable(num_vars));
  for (Minterm m = 0; m < (Minterm{1} << num_vars); ++m) {
    const std::optional<std::uint64_t> v = value(m);
    for (std::size_t b = 0; b < outputs; ++b) {
      if (!v) {
        tables[b].set_dc(m);
      } else if ((*v >> b) & 1) {
        tables[b].set_on(m);
      }
    }
  }
  return tables;
}

/// State of each code of `enc`, kNoState for unused codes.
std::vector<State> states_by_code(const Encoding& enc) {
  std::vector<State> inv(std::size_t{1} << enc.width, kNoState);
  for (State s = 0; s < enc.codes.size(); ++s) inv[enc.codes[s]] = s;
  return inv;
}

class FactoringInput : public ::testing::TestWithParam<std::string> {};

TEST_P(FactoringInput, CoversImplementTheirTablesWithPerOutputPrimes) {
  const MealyMachine m = load_benchmark(GetParam());
  const Encoding code = natural_encoding(m.num_states());
  const EncodedFsm enc = encode_fsm(m, code);
  const std::size_t ib = enc.input_bits;
  const std::vector<State> by_code = states_by_code(code);
  const auto c_value = [&](Minterm mt) -> std::optional<std::uint64_t> {
    const State s = by_code[mt >> ib];
    const Input in = static_cast<Input>(mt & ((Minterm{1} << ib) - 1));
    if (s == kNoState || in >= m.num_inputs()) return std::nullopt;
    return code.code_of(m.next(s, in)) |
           (static_cast<std::uint64_t>(m.output(s, in)) << enc.state_bits);
  };
  expect_covers_implement(
      enc.spec, tabulate(enc.num_vars(), enc.state_bits + enc.output_bits, c_value), "C");
}

TEST_P(FactoringInput, Fig4CoversImplementTheirTablesWithPerOutputPrimes) {
  const MealyMachine m = load_benchmark(GetParam());
  OstrOptions opts;
  opts.max_nodes = 4000;  // the blocks' shape, not OSTR quality, matters
  const OstrResult res = solve_ostr(m, opts);
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  const FactorTables& ft = real.tables;
  const Encoding e1 = natural_encoding(ft.n1), e2 = natural_encoding(ft.n2);
  const std::vector<State> by1 = states_by_code(e1), by2 = states_by_code(e2);
  const std::size_t ib = m.effective_input_bits();
  const auto input_of = [&](Minterm mt) { return mt & ((Minterm{1} << ib) - 1); };

  // C1: (inputs, R1) -> R2 code; C2: (inputs, R2) -> R1 code.
  const auto factor_tables = [&](const EncodedFactor& f, const std::vector<State>& table,
                                 const std::vector<State>& dom, const Encoding& rng) {
    return tabulate(f.num_vars(), rng.width, [&](Minterm mt) -> std::optional<std::uint64_t> {
      const State s = dom[mt >> ib];
      const Minterm in = input_of(mt);
      if (s == kNoState || in >= ft.num_inputs) return std::nullopt;
      return rng.code_of(table[s * ft.num_inputs + in]);
    });
  };
  const EncodedFactor f1 = encode_factor(ft.delta1, ft.num_inputs, ib, e1, e2);
  expect_covers_implement(f1.spec, factor_tables(f1, ft.delta1, by1, e2), "C1");
  const EncodedFactor f2 = encode_factor(ft.delta2, ft.num_inputs, ib, e2, e1);
  expect_covers_implement(f2.spec, factor_tables(f2, ft.delta2, by2, e1), "C2");

  // lambda: (inputs, R2, R1) -> outputs.
  const std::size_t ob = m.effective_output_bits();
  const EncodedLambda lam =
      encode_lambda(ft.lambda, ft.n1, ft.n2, ft.num_inputs, ib, ob, e1, e2);
  const auto lambda_value = [&](Minterm mt) -> std::optional<std::uint64_t> {
    const State s2 = by2[(mt >> ib) & ((Minterm{1} << e2.width) - 1)];
    const State s1 = by1[mt >> (ib + e2.width)];
    const Minterm in = input_of(mt);
    if (s1 == kNoState || s2 == kNoState || in >= ft.num_inputs) return std::nullopt;
    return ft.lambda[(static_cast<std::size_t>(s1) * ft.n2 + s2) * ft.num_inputs + in];
  };
  expect_covers_implement(lam.spec, tabulate(lam.num_vars(), ob, lambda_value), "lambda");
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, FactoringInput,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- fault-campaign parity on factored netlists ------------------------------

std::set<std::pair<NetId, bool>> fault_set(const std::vector<Fault>& faults) {
  std::set<std::pair<NetId, bool>> s;
  for (const Fault& f : faults) s.insert({f.net, f.stuck_value});
  return s;
}

/// Multi-level cones interact with fanout-cone scheduling, glitch
/// suppression and fault masks on intermediate nets; the event engine
/// must still match the serial oracle fault for fault.
void expect_campaign_parity(const ControllerStructure& cs, std::size_t cycles) {
  const SelfTestPlan plan = SelfTestPlan::two_session(cycles);
  const auto all = enumerate_stuck_faults(cs.nl);
  std::vector<Fault> list;
  const std::size_t cap = 120;  // serial oracle: one self-test per fault
  const std::size_t stride = all.size() <= cap ? 1 : (all.size() + cap - 1) / cap;
  for (std::size_t i = 0; i < all.size(); i += stride) list.push_back(all[i]);

  const CoverageResult serial = measure_coverage(cs, plan, list);
  const auto serial_undet = fault_set(serial.undetected);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions opt;
    opt.num_threads = threads;
    const CampaignResult par = run_fault_campaign(cs, plan, opt, list);
    EXPECT_EQ(par.raw.total, serial.total);
    EXPECT_EQ(par.raw.detected, serial.detected) << "threads=" << threads;
    EXPECT_EQ(fault_set(par.raw.undetected), serial_undet)
        << "threads=" << threads;
  }
}

TEST(FactoredCampaign, Dk27PipelineParityAcrossEnginesAndThreads) {
  expect_campaign_parity(fig4_for("dk27", Technology::kMultiLevel), 48);
}

TEST(FactoredCampaign, TbkPipelineParityAcrossEnginesAndThreads) {
  expect_campaign_parity(fig4_for("tbk", Technology::kMultiLevel), 32);
}

}  // namespace
}  // namespace stc
