// Tests for the bit-parallel fault-simulation engine: the compiled 64-lane
// evaluator, structural fault collapsing, and the parallel campaign driver.
// The load-bearing property is signature-exact agreement with the serial
// oracle (measure_coverage) on the detected-fault *set*, not just the count.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "benchdata/iwls93.hpp"
#include "bist/lfsr.hpp"
#include "bist/session.hpp"
#include "netlist/builder.hpp"
#include "netlist/eval64.hpp"
#include "ostr/ostr.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

ControllerStructure fig1_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

ControllerStructure fig2_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig2(encode_fsm(m, natural_encoding(m.num_states())));
}

ControllerStructure fig3_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig3(encode_fsm(m, natural_encoding(m.num_states())));
}

ControllerStructure fig4_for(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  return build_fig4(m, real);
}

std::set<std::pair<NetId, bool>> fault_set(const std::vector<Fault>& faults) {
  std::set<std::pair<NetId, bool>> s;
  for (const Fault& f : faults) s.insert({f.net, f.stuck_value});
  return s;
}

// --- compiled evaluator ------------------------------------------------------

TEST(CompiledNetlist, MatchesScalarEvaluateWithLaneFaults) {
  const ControllerStructure cs = fig1_for("dk27");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl);

  const auto faults = enumerate_stuck_faults(nl);
  Rng rng(42);

  // A batch of random faults on random lanes.
  std::vector<LaneFault> batch;
  for (unsigned lane = 1; lane <= 63 && lane <= faults.size(); ++lane) {
    const Fault& f = faults[rng.below(faults.size())];
    batch.push_back({f.net, f.stuck_value, lane});
  }
  cn.set_faults(batch);

  std::vector<std::uint64_t> in_lanes(nl.num_inputs());
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs());
  std::vector<std::uint64_t> lane_values(nl.num_nets());
  std::vector<bool> in(nl.num_inputs());
  std::vector<bool> scalar_values;

  for (int trial = 0; trial < 20; ++trial) {
    Netlist::SimState state = nl.initial_state();
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) in[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k) state.dff[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_inputs(); ++k)
      in_lanes[k] = in[k] ? ~std::uint64_t{0} : 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k)
      dff_lanes[k] = state.dff[k] ? ~std::uint64_t{0} : 0;

    cn.evaluate(in_lanes.data(), dff_lanes.data(), lane_values.data());

    // Lane 0: fault-free reference.
    nl.evaluate(in, state, scalar_values);
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ((lane_values[id] >> 0) & 1, scalar_values[id] ? 1u : 0u)
          << "net " << id << " lane 0";

    // Every faulty lane matches the scalar evaluator with that fault forced.
    for (const LaneFault& lf : batch) {
      nl.evaluate(in, state, scalar_values, lf.net, lf.stuck_value);
      for (NetId id = 0; id < nl.num_nets(); ++id)
        ASSERT_EQ((lane_values[id] >> lf.lane) & 1, scalar_values[id] ? 1u : 0u)
            << "net " << id << " lane " << lf.lane;
    }
  }
}

TEST(CompiledNetlist, WideLanesMatchScalarEvaluateOnHighLanes) {
  // W = 8 (512 lanes): faults pinned to lanes across the whole word group,
  // including the top word, must each reproduce the scalar evaluator's
  // faulty values while lane 0 stays fault-free.
  const ControllerStructure cs = fig1_for("dk27");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl, 8);
  ASSERT_EQ(cn.num_lanes(), 512u);

  const auto faults = enumerate_stuck_faults(nl);
  Rng rng(99);
  std::vector<LaneFault> batch;
  for (const unsigned lane : {1u, 63u, 64u, 127u, 200u, 321u, 448u, 511u}) {
    const Fault& f = faults[rng.below(faults.size())];
    batch.push_back({f.net, f.stuck_value, lane});
  }
  cn.set_faults(batch);

  const unsigned W = cn.lane_words();
  std::vector<std::uint64_t> in_lanes(nl.num_inputs() * W);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs() * W);
  std::vector<std::uint64_t> lane_values(nl.num_nets() * W);
  std::vector<bool> in(nl.num_inputs());
  std::vector<bool> scalar_values;

  for (int trial = 0; trial < 10; ++trial) {
    Netlist::SimState state = nl.initial_state();
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) in[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k) state.dff[k] = rng.below(2) != 0;
    for (std::size_t k = 0; k < nl.num_inputs(); ++k)
      for (unsigned w = 0; w < W; ++w)
        in_lanes[k * W + w] = in[k] ? ~std::uint64_t{0} : 0;
    for (std::size_t k = 0; k < nl.num_dffs(); ++k)
      for (unsigned w = 0; w < W; ++w)
        dff_lanes[k * W + w] = state.dff[k] ? ~std::uint64_t{0} : 0;

    cn.evaluate(in_lanes.data(), dff_lanes.data(), lane_values.data());

    nl.evaluate(in, state, scalar_values);
    for (NetId id = 0; id < nl.num_nets(); ++id)
      ASSERT_EQ(lane_values[id * W] & 1, scalar_values[id] ? 1u : 0u)
          << "net " << id << " lane 0";

    for (const LaneFault& lf : batch) {
      nl.evaluate(in, state, scalar_values, lf.net, lf.stuck_value);
      for (NetId id = 0; id < nl.num_nets(); ++id)
        ASSERT_EQ((lane_values[id * W + (lf.lane >> 6)] >> (lf.lane & 63)) & 1,
                  scalar_values[id] ? 1u : 0u)
            << "net " << id << " lane " << lf.lane;
    }
  }
}

TEST(CompiledNetlist, RejectsUnsupportedLaneWords) {
  const ControllerStructure cs = fig1_for("shiftreg");
  for (const unsigned bad : {0u, 2u, 3u, 5u, 16u})
    EXPECT_THROW(CompiledNetlist cn(cs.nl, bad), std::invalid_argument)
        << "lane_words=" << bad;
}

TEST(CompiledNetlist, ClearFaultsRestoresFaultFree) {
  const ControllerStructure cs = fig1_for("shiftreg");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl);
  cn.set_faults({{nl.outputs()[0], true, 5}});
  cn.clear_faults();

  std::vector<std::uint64_t> in_lanes(nl.num_inputs(), 0);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs(), 0);
  std::vector<std::uint64_t> values(nl.num_nets());
  cn.evaluate(in_lanes.data(), dff_lanes.data(), values.data());
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const std::uint64_t w = values[id];
    EXPECT_TRUE(w == 0 || w == ~std::uint64_t{0}) << "net " << id;
  }
}

TEST(CompiledNetlist, RequiresFinalize) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(CompiledNetlist cn(nl), std::logic_error);
}

// --- allocation-free scalar step --------------------------------------------

TEST(NetlistStep, ScratchOverloadMatchesAllocatingStep) {
  const ControllerStructure cs = fig1_for("dk27");
  const Netlist& nl = cs.nl;
  Rng rng(7);
  Netlist::SimState s1 = nl.initial_state(), s2 = nl.initial_state();
  std::vector<bool> in(nl.num_inputs());
  std::vector<bool> values, out;
  for (int k = 0; k < 100; ++k) {
    for (std::size_t b = 0; b < in.size(); ++b) in[b] = rng.below(2) != 0;
    const auto expect = nl.step(in, s1);
    nl.step(in, s2, values, out);
    ASSERT_EQ(out, expect) << "cycle " << k;
    ASSERT_EQ(s1.dff, s2.dff) << "cycle " << k;
  }
}

// --- fault collapsing --------------------------------------------------------

TEST(CollapseFaults, BufferChainCollapsesNotGateFlipsPolarity) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b1 = nl.add_gate(GateType::kBuf, {a});
  const NetId b2 = nl.add_gate(GateType::kBuf, {b1});
  const NetId inv = nl.add_not(b2);
  nl.add_output(inv, "o");
  nl.finalize();

  const auto faults = enumerate_stuck_faults(nl);  // 4 nets x 2
  const auto cf = collapse_faults(nl, faults);
  // a/sa0 == b1/sa0 == b2/sa0 == inv/sa1, and the mirrored polarity class.
  EXPECT_EQ(cf.num_classes(), 2u);
  ASSERT_EQ(cf.class_of.size(), faults.size());
  // a/sa0 (index 0) and inv/sa1 (index 7) share a class.
  EXPECT_EQ(cf.class_of[0], cf.class_of[7]);
  // a/sa1 (index 1) and inv/sa0 (index 6) share the other.
  EXPECT_EQ(cf.class_of[1], cf.class_of[6]);
  EXPECT_NE(cf.class_of[0], cf.class_of[1]);
}

TEST(CollapseFaults, AndOrControllingValuesCollapse) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g_and = nl.add_and({a, b});
  const NetId c = nl.add_input("c");
  const NetId g_or = nl.add_or({g_and, c});
  nl.add_output(g_or, "o");
  nl.finalize();

  const auto faults = enumerate_stuck_faults(nl);
  const auto cf = collapse_faults(nl, faults);
  const auto cls = [&](NetId net, bool sv) {
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (faults[i].net == net && faults[i].stuck_value == sv) return cf.class_of[i];
    return SIZE_MAX;
  };
  // a/sa0 == b/sa0 == and/sa0 == or/sa0? No: AND feeds OR, sa0 does not
  // propagate through OR inputs. a/sa0 == b/sa0 == and/sa0 only.
  EXPECT_EQ(cls(a, false), cls(b, false));
  EXPECT_EQ(cls(a, false), cls(g_and, false));
  EXPECT_NE(cls(g_and, false), cls(g_or, false));
  // and/sa1 == or/sa1 == c/sa1 (controlling value of OR).
  EXPECT_EQ(cls(g_and, true), cls(g_or, true));
  EXPECT_EQ(cls(c, true), cls(g_or, true));
  // Non-controlling polarities stay separate.
  EXPECT_NE(cls(a, true), cls(g_and, true));
}

TEST(CollapseFaults, FanoutAndObservedNetsBlockCollapsing) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b1 = nl.add_gate(GateType::kBuf, {a});  // a also observed below
  nl.add_output(a, "tap");  // a is a primary output: cannot fold into b1
  const NetId c = nl.add_input("c");
  const NetId b2 = nl.add_gate(GateType::kBuf, {c});
  const NetId b3 = nl.add_gate(GateType::kBuf, {c});  // c has two readers
  nl.add_output(b1, "o1");
  nl.add_output(b2, "o2");
  nl.add_output(b3, "o3");
  nl.finalize();

  const auto faults = enumerate_stuck_faults(nl);
  const auto cf = collapse_faults(nl, faults);
  EXPECT_EQ(cf.num_classes(), faults.size());  // nothing may collapse
}

TEST(CollapseFaults, ClassMembersHaveIdenticalSerialDetection) {
  const ControllerStructure cs = fig1_for("dk27");
  const auto faults = enumerate_stuck_faults(cs.nl);
  const auto cf = collapse_faults(cs.nl, faults);
  ASSERT_LT(cf.num_classes(), faults.size()) << "expected some collapsing";

  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  const Signatures golden = run_self_test(cs, plan);
  std::vector<int> class_verdict(cf.num_classes(), -1);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool det = run_self_test(cs, plan, faults[i]) != golden;
    int& v = class_verdict[cf.class_of[i]];
    if (v == -1) {
      v = det ? 1 : 0;
    } else {
      ASSERT_EQ(v, det ? 1 : 0) << "fault " << faults[i].describe(cs.nl)
                                << " disagrees with its class representative";
    }
  }
}

// --- campaign equivalence ----------------------------------------------------

/// Campaigns at 1 and 4 threads, with and without collapsing, against the
/// serial oracle on the same fault list.
void expect_campaigns_match_serial_oracle(const ControllerStructure& cs) {
  const SelfTestPlan plan = SelfTestPlan::two_session(48);

  // The serial oracle costs one full self-test per fault, so cap the
  // compared list with a deterministic stride on the big machines; small
  // machines compare their complete fault list.
  const auto all = enumerate_stuck_faults(cs.nl);
  std::vector<Fault> list;
  const std::size_t cap = 160;
  const std::size_t stride = all.size() <= cap ? 1 : (all.size() + cap - 1) / cap;
  for (std::size_t i = 0; i < all.size(); i += stride) list.push_back(all[i]);

  const CoverageResult serial = measure_coverage(cs, plan, list);
  const auto serial_undet = fault_set(serial.undetected);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool collapse : {true, false}) {
      CampaignOptions opt;
      opt.num_threads = threads;
      opt.collapse = collapse;
      const CampaignResult par = run_fault_campaign(cs, plan, opt, list);
      EXPECT_EQ(par.raw.total, serial.total);
      EXPECT_EQ(par.raw.detected, serial.detected)
          << "threads=" << threads << " collapse=" << collapse;
      EXPECT_EQ(fault_set(par.raw.undetected), serial_undet)
          << "threads=" << threads << " collapse=" << collapse;
      if (collapse) {
        EXPECT_LE(par.collapsed_total, par.raw.total);
        EXPECT_LE(par.session_runs,
                  (par.collapsed_total + faults_per_run(1) - 1) /
                      faults_per_run(1));
      }
      // Activity accounting: the event engine never re-evaluates more
      // than every op of every cycle.
      EXPECT_GT(par.cycles_simulated, 0u);
      EXPECT_LE(par.mean_activity(), 1.0);
      EXPECT_GT(par.mean_activity(), 0.0);
    }
  }
}

class CampaignEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(CampaignEquivalence, BothLaneEnginesMatchSerialOracleAtAllThreadCounts) {
  // Fig. 1, and Fig. 2, whose mux-fed products reach the dense sweep only
  // through its boundary level.
  for (const bool fig2 : {false, true}) {
    SCOPED_TRACE(fig2 ? "fig2" : "fig1");
    expect_campaigns_match_serial_oracle(fig2 ? fig2_for(GetParam())
                                              : fig1_for(GetParam()));
  }
}

TEST(Campaign, WideRunsMatchSerialOracle) {
  // Full fault lists whose class counts make the engine pick 256- and
  // 512-lane runs at one and at four threads (dk16 fig3: 459 classes, 494
  // faults; tbk fig1: 1624 classes, 2658 faults). session_runs pins the
  // width that ran; the detected sets must equal the serial oracle's.
  struct Case {
    std::size_t threads;
    bool collapse;
    unsigned lane_words;
  };
  const SelfTestPlan plan = SelfTestPlan::two_session(16);
  for (const char* machine : {"dk16", "tbk"}) {
    const bool dk16 = std::string(machine) == "dk16";
    const ControllerStructure cs = dk16 ? fig3_for(machine) : fig1_for(machine);
    const CoverageResult serial = measure_coverage(cs, plan);
    const auto serial_undet = fault_set(serial.undetected);
    const std::vector<Case> cases =
        dk16 ? std::vector<Case>{{1, true, 4}, {1, false, 4}}
            : std::vector<Case>{
                  {1, true, 8}, {1, false, 8}, {4, true, 4}, {4, false, 8}};
    for (const Case& c : cases) {
      CampaignOptions opt;
      opt.num_threads = c.threads;
      opt.collapse = c.collapse;
      const CampaignResult par = run_fault_campaign(cs, plan, opt);
      const std::string what = std::string(machine) +
                               " threads=" + std::to_string(c.threads) +
                               " collapse=" + std::to_string(c.collapse);
      const std::size_t per_run = faults_per_run(c.lane_words);
      EXPECT_EQ(par.session_runs,
                (par.collapsed_total + per_run - 1) / per_run)
          << what;
      EXPECT_EQ(par.raw.detected, serial.detected) << what;
      EXPECT_EQ(fault_set(par.raw.undetected), serial_undet) << what;
    }
  }
}

TEST(Campaign, WiderLanesTakeFewerSessionRuns) {
  // The width rule: W is the widest of 8, 4, 1 with one worker's share of
  // the classes >= 64·W - 1, and a campaign takes ceil(classes / (64·W -
  // 1)) runs. Uncollapsed bbara fig3 has 352 faults.
  static_assert(fill_lane_words(254, faults_per_run) == 1);
  static_assert(fill_lane_words(255, faults_per_run) == 4);
  static_assert(fill_lane_words(510, faults_per_run) == 4);
  static_assert(fill_lane_words(511, faults_per_run) == 8);
  static_assert(fill_lane_words(127, fleet_instances_per_run) == 1);
  static_assert(fill_lane_words(128, fleet_instances_per_run) == 4);
  static_assert(fill_lane_words(256, fleet_instances_per_run) == 8);
  const ControllerStructure cs = fig3_for("bbara");
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  const auto all = enumerate_stuck_faults(cs.nl);
  ASSERT_EQ(all.size(), 352u);
  struct Case {
    std::size_t faults, threads, runs;
  };
  for (const Case& c : {Case{100, 1, 2},    // W = 1: 63 + 37
                        Case{254, 1, 5},    // W = 1: one short of 256 lanes
                        Case{255, 1, 1},    // W = 4: one full run
                        Case{304, 1, 2},    // W = 4: 255 + 49
                        Case{304, 4, 5}}) {  // share 76: W = 1
    CampaignOptions opt;
    opt.collapse = false;
    opt.num_threads = c.threads;
    const CampaignResult r = run_fault_campaign(
        cs, plan, opt, std::vector<Fault>(all.begin(), all.begin() + c.faults));
    const unsigned W = fill_lane_words(c.faults / c.threads, faults_per_run);
    EXPECT_EQ(r.session_runs,
              (c.faults + faults_per_run(W) - 1) / faults_per_run(W))
        << c.faults << " faults, " << c.threads << " threads";
    EXPECT_EQ(r.session_runs, c.runs) << c.faults << " faults, " << c.threads
                                      << " threads";
  }
}

TEST(Campaign, ValidateReportsAllInvalidFieldsAtOnce) {
  const ControllerStructure cs = fig1_for("dk27");
  CampaignOptions opt;
  opt.num_threads = 0;
  SelfTestPlan empty_plan;  // no sessions
  try {
    run_fault_campaign(cs, empty_plan, opt);
    FAIL() << "invalid options must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    // Every problem is named in ONE error, not discovered one at a time.
    const std::string ctx = e.context();
    EXPECT_NE(ctx.find("num_threads"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("sessions"), std::string::npos) << ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, CampaignEquivalence,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

TEST(Campaign, Fig4PipelineMatchesSerialOracle) {
  const ControllerStructure cs = fig4_for("dk27");
  const SelfTestPlan plan = SelfTestPlan::two_session(64);
  const CoverageResult serial = measure_coverage(cs, plan);
  CampaignOptions opt;
  opt.num_threads = 2;
  const CampaignResult par = run_fault_campaign(cs, plan, opt);
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
}

TEST(Campaign, AutonomousAndThoroughPlansMatchSerialOracle) {
  const ControllerStructure cs = fig4_for("shiftreg");
  for (const SelfTestPlan& plan :
       {SelfTestPlan::autonomous(48), SelfTestPlan::thorough(32),
        SelfTestPlan::conventional(64)}) {
    const CoverageResult serial = measure_coverage(cs, plan);
    const CampaignResult par = run_fault_campaign(cs, plan);
    EXPECT_EQ(par.raw.detected, serial.detected);
    EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
  }
}

TEST(Campaign, ConstNetFaultsInjectIdenticallyInBothEngines) {
  // enumerate_stuck_faults skips constant drivers, but a caller-supplied
  // list may include them; the scalar oracle and the mask-based compiled
  // engine must then agree that the fault *is* injected and detected.
  ControllerStructure cs;
  Netlist& nl = cs.nl;
  const NetId a = nl.add_input("a");
  cs.pi = {a};
  const NetId one = nl.add_const(true);
  const NetId q = nl.add_dff("r", false);
  const NetId d = nl.add_xor({a, q});
  nl.connect_dff(q, d);
  cs.reg_a = {0};
  const NetId o = nl.add_and({d, one});  // one/sa0 forces the output low
  nl.add_output(o, "o");
  cs.po = {o};
  nl.finalize();

  const SelfTestPlan plan = SelfTestPlan::two_session(32);
  const std::vector<Fault> list = faults_on_nets({one});
  const CoverageResult serial = measure_coverage(cs, plan, list);
  const CampaignResult par = run_fault_campaign(cs, plan, {}, list);
  EXPECT_EQ(serial.detected, 1u);  // sa0 detected, sa1 is redundant
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
}

TEST(Campaign, ExplicitFaultSubsetAndEmptyList) {
  const ControllerStructure cs = fig1_for("shiftreg");
  const SelfTestPlan plan = SelfTestPlan::two_session(32);
  const auto all = enumerate_stuck_faults(cs.nl);
  std::vector<Fault> subset(all.begin(), all.begin() + all.size() / 2);

  const CoverageResult serial = measure_coverage(cs, plan, subset);
  const CampaignResult par = run_fault_campaign(cs, plan, {}, subset);
  EXPECT_EQ(par.raw.total, subset.size());
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));

  const CampaignResult empty =
      run_fault_campaign(cs, plan, {}, std::vector<Fault>{});
  EXPECT_EQ(empty.raw.total, 0u);
  EXPECT_EQ(empty.session_runs, 0u);
  EXPECT_DOUBLE_EQ(empty.coverage(), 1.0);
}

// --- golden coverage regression ----------------------------------------------
//
// Exact detected counts for two corpus machines. Everything in the stack is
// deterministic, so these numbers must not drift; a change here means the
// simulation semantics or the synthesized netlists changed (update
// deliberately, with DESIGN.md).

TEST(CampaignGolden, Dk27Fig4TwoSession128) {
  const ControllerStructure cs = fig4_for("dk27");
  const CampaignResult r = run_fault_campaign(cs, SelfTestPlan::two_session(128));
  const CoverageResult serial = measure_coverage(cs, SelfTestPlan::two_session(128));
  EXPECT_EQ(r.raw.total, serial.total);
  EXPECT_EQ(r.raw.detected, serial.detected);
  // Golden values (netlists of the espresso-only flow): the pipeline
  // structure is fully testable by the two-session plan.
  EXPECT_EQ(r.raw.total, 46u);
  EXPECT_EQ(r.raw.detected, 46u);
}

TEST(CampaignGolden, BbaraFig1TwoSession48) {
  const ControllerStructure cs = fig1_for("bbara");
  const CampaignResult r = run_fault_campaign(cs, SelfTestPlan::two_session(48));
  const CoverageResult serial = measure_coverage(cs, SelfTestPlan::two_session(48));
  EXPECT_EQ(r.raw.total, serial.total);
  EXPECT_EQ(r.raw.detected, serial.detected);
  // Golden values (netlists of the espresso-only flow): a short plan on the
  // conventional structure leaves a nonempty undetected set.
  EXPECT_EQ(r.raw.total, 234u);
  EXPECT_EQ(r.raw.detected, 193u);
}

// --- wide-output signature regression ----------------------------------------
//
// The former compaction dropped primary outputs beyond the MISR width (and
// beyond bit 63 of the per-cycle word), so faults observable only on a high
// output were silently missed. Build a structure with 70 outputs and check
// a fault on output 68's driver is detected by both engines.

ControllerStructure wide_output_structure() {
  ControllerStructure cs;
  cs.kind = "wide";
  Netlist& nl = cs.nl;
  const NetId a = nl.add_input("a");
  cs.pi = {a};
  const NetId q = nl.add_dff("r", false);
  const NetId d = nl.add_xor({a, q});
  nl.connect_dff(q, d);
  cs.reg_a = {0};
  for (int j = 0; j < 70; ++j) {
    // Distinct driver per output; fanout of d is > 1 so none collapse into it.
    const NetId o = nl.add_gate(GateType::kBuf, {d});
    nl.add_output(o, "out[" + std::to_string(j) + "]");
    cs.po.push_back(o);
  }
  nl.finalize();
  return cs;
}

TEST(WideOutputs, FaultOnHighOutputIsDetected) {
  const ControllerStructure cs = wide_output_structure();
  ASSERT_GT(cs.po.size(), 64u);
  const SelfTestPlan plan = SelfTestPlan::two_session(32);

  const Signatures golden = run_self_test(cs, plan);
  const Fault high{cs.po[68], true};  // stuck-at-1 on output 68's driver
  EXPECT_NE(run_self_test(cs, plan, high), golden)
      << "fault observable only beyond bit 63 must affect the signature";
  const Fault mid{cs.po[40], true};  // beyond the 16-bit MISR width too
  EXPECT_NE(run_self_test(cs, plan, mid), golden);

  const CoverageResult serial = measure_coverage(cs, plan);
  const CampaignResult par = run_fault_campaign(cs, plan);
  EXPECT_EQ(par.raw.detected, serial.detected);
  EXPECT_EQ(fault_set(par.raw.undetected), fault_set(serial.undetected));
  // Every output-driver fault is observable here.
  for (const Fault& f : serial.undetected)
    EXPECT_TRUE(std::find(cs.po.begin(), cs.po.end(), f.net) == cs.po.end())
        << "undetected fault on observed output net " << f.net;
}

// --- functional baseline -----------------------------------------------------
//
// measure_functional_coverage against an independent lockstep replay: the
// fault-free and the faulty netlist are stepped side by side under the
// baseline's documented stimulus (an LFSR of width max(8, |pi|) seeded with
// `seed`, bit k driving functional input k, test mode held at 0), and a
// fault is detected iff some cycle's primary outputs differ.

bool lockstep_detects(const ControllerStructure& cs, const Fault& f,
                      std::size_t cycles, std::uint64_t seed) {
  const Netlist& nl = cs.nl;
  std::vector<std::size_t> slot(cs.pi.size());
  for (std::size_t k = 0; k < cs.pi.size(); ++k)
    slot[k] = static_cast<std::size_t>(
        std::find(nl.inputs().begin(), nl.inputs().end(), cs.pi[k]) -
        nl.inputs().begin());
  Lfsr gen(std::max<std::size_t>(8, cs.pi.size()), seed);
  Netlist::SimState good = nl.initial_state(), bad = nl.initial_state();
  std::vector<bool> in(nl.num_inputs()), values, out_good, out_bad;
  for (std::size_t c = 0; c < cycles; ++c) {
    std::fill(in.begin(), in.end(), false);
    for (std::size_t k = 0; k < slot.size(); ++k) in[slot[k]] = gen.bit(k);
    nl.step(in, good, values, out_good);
    nl.step(in, bad, values, out_bad, f.net, f.stuck_value);
    if (out_good != out_bad) return true;
    gen.step();
  }
  return false;
}

TEST(FunctionalBaseline, DetectedSetsMatchLockstepReplay) {
  constexpr std::size_t kCycles = 256;
  constexpr std::uint64_t kSeed = 0x5EED;
  const auto expect_match = [&](const std::string& name,
                                const ControllerStructure& cs,
                                const std::vector<Fault>& list) {
    std::vector<Fault> expect_undetected;
    for (const Fault& f : list)
      if (!lockstep_detects(cs, f, kCycles, kSeed)) expect_undetected.push_back(f);

    const CoverageResult r = measure_functional_coverage(cs, kCycles, list, kSeed);
    EXPECT_EQ(r.total, list.size()) << name;
    EXPECT_EQ(r.simulated, list.size()) << name;
    EXPECT_EQ(r.detected, list.size() - expect_undetected.size()) << name;
    EXPECT_EQ(fault_set(r.undetected), fault_set(expect_undetected)) << name;
    // A sample with no detection would make the comparison vacuous.
    EXPECT_GT(r.detected, 0u) << name;
  };

  // Every fault of every corpus machine but the two largest.
  for (const std::string& name : benchmark_names()) {
    if (name == "s1" || name == "tbk") continue;
    const ControllerStructure cs = fig1_for(name);
    expect_match(name, cs, enumerate_stuck_faults(cs.nl));
  }

  // tbk's full list costs seconds per replay pass; compare a
  // deterministic stride sample of it.
  {
    const ControllerStructure cs = fig1_for("tbk");
    const auto all = enumerate_stuck_faults(cs.nl);
    const std::size_t cap = 64;
    const std::size_t stride = (all.size() + cap - 1) / cap;
    std::vector<Fault> list;
    for (std::size_t i = 0; i < all.size(); i += stride) list.push_back(all[i]);
    expect_match("tbk", cs, list);
  }

  // Fig. 2 has a test_mode pin; the baseline holds it at 0 like the replay.
  {
    const MealyMachine m = load_benchmark("bbara");
    const ControllerStructure cs =
        build_fig2(encode_fsm(m, natural_encoding(m.num_states())));
    ASSERT_NE(cs.test_mode, kNoNet);
    expect_match("bbara fig2", cs, enumerate_stuck_faults(cs.nl));
  }

  // A duplicated fault takes two lanes and yields two verdicts, and 127
  // faults are two full 63-fault runs plus a one-fault run.
  {
    const ControllerStructure cs = fig1_for("dk16");
    const auto all = enumerate_stuck_faults(cs.nl);
    ASSERT_GE(all.size(), 126u);
    std::vector<Fault> list(all.begin(), all.begin() + 126);
    list.push_back(list.front());
    ASSERT_NE(list.size() % faults_per_run(1), 0u);
    expect_match("dk16 duplicate", cs, list);
  }
}

}  // namespace
}  // namespace stc
