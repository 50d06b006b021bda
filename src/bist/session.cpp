#include "bist/session.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "bist/lfsr.hpp"
#include "netlist/eval64.hpp"
#include "util/bitvec.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stc {

SelfTestPlan SelfTestPlan::two_session(std::size_t cycles_per_session) {
  SelfTestPlan plan;
  SessionSpec s1;
  s1.role_a = RegRole::kGenerate;
  s1.role_b = RegRole::kCompress;
  s1.cycles = cycles_per_session;
  SessionSpec s2;
  s2.role_a = RegRole::kCompress;
  s2.role_b = RegRole::kGenerate;
  s2.cycles = cycles_per_session;
  s2.input_seed = 0xCAFE;
  s2.gen_seed = 0x3;
  plan.sessions = {s1, s2};
  return plan;
}

SelfTestPlan SelfTestPlan::thorough(std::size_t cycles_per_session) {
  SelfTestPlan plan = two_session(cycles_per_session);
  SelfTestPlan second = two_session(cycles_per_session | 1);  // odd length
  second.sessions[0].input_seed = 0x1D5B;
  second.sessions[0].gen_seed = 0x5;
  second.sessions[1].input_seed = 0x77AA;
  second.sessions[1].gen_seed = 0xB;
  plan.sessions.insert(plan.sessions.end(), second.sessions.begin(),
                       second.sessions.end());
  return plan;
}

SelfTestPlan SelfTestPlan::autonomous(std::size_t cycles_per_session) {
  SelfTestPlan plan = two_session(cycles_per_session);
  plan.sessions[0].role_a = RegRole::kSystem;
  plan.sessions[1].role_b = RegRole::kSystem;
  return plan;
}

SelfTestPlan SelfTestPlan::conventional(std::size_t cycles) {
  SelfTestPlan plan;
  SessionSpec s;
  s.role_a = RegRole::kCompress;  // R compresses the next-state lines
  s.role_b = RegRole::kGenerate;  // T generates patterns into C
  s.cycles = cycles;
  plan.sessions = {s};
  return plan;
}

namespace {

/// One register bank reconfigured per role for a session.
class Bank {
 public:
  Bank(const Netlist& nl, const std::vector<std::size_t>& dff_idx, RegRole role,
       std::uint64_t seed)
      : nl_(nl), idx_(dff_idx), role_(role), reg_(idx_.empty() ? 1 : idx_.size()) {
    if (role_ == RegRole::kGenerate) {
      reg_.load(seed == 0 ? 1 : seed);
    } else {
      reg_.load(0);
    }
  }

  bool empty() const { return idx_.empty(); }
  std::uint64_t value() const { return reg_.state(); }

  /// Write the bank's current contents into the simulator DFF image.
  void deposit(Netlist::SimState& state) const {
    for (std::size_t k = 0; k < idx_.size(); ++k)
      state.dff[idx_[k]] = (reg_.state() >> k) & 1;
  }

  /// Clock the bank given the netlist's computed D values.
  void clock(const std::vector<bool>& net_values) {
    std::uint64_t d = 0;
    for (std::size_t k = 0; k < idx_.size(); ++k) {
      const NetId q = nl_.dffs()[idx_[k]];
      const NetId dn = nl_.gate(q).fanins[0];
      if (net_values[dn]) d |= std::uint64_t{1} << k;
    }
    switch (role_) {
      case RegRole::kGenerate:
        reg_.clock(BilboMode::kGenerate);
        break;
      case RegRole::kCompress:
        reg_.clock(BilboMode::kCompress, d);
        break;
      case RegRole::kSystem:
        reg_.clock(BilboMode::kSystem, d);
        break;
      case RegRole::kHold:
        reg_.clock(BilboMode::kHold);
        break;
    }
  }

 private:
  const Netlist& nl_;
  std::vector<std::size_t> idx_;
  RegRole role_;
  Bilbo reg_;
};

/// Where each functional input / the test-mode pin sits in the netlist's
/// primary-input slot order; computed once per run instead of the former
/// O(|pi| * |slots|) scan every cycle.
struct PinMap {
  std::vector<std::size_t> pi_slot;
  std::size_t test_slot = SIZE_MAX;
};

PinMap map_pins(const ControllerStructure& cs) {
  PinMap pm;
  const std::vector<NetId>& slots = cs.nl.inputs();
  pm.pi_slot.reserve(cs.pi.size());
  for (NetId net : cs.pi) {
    std::size_t found = SIZE_MAX;
    for (std::size_t k = 0; k < slots.size(); ++k)
      if (slots[k] == net) {
        found = k;
        break;
      }
    if (found == SIZE_MAX)
      throw std::logic_error("session: pi net is not a primary input");
    pm.pi_slot.push_back(found);
  }
  if (cs.test_mode != kNoNet)
    for (std::size_t k = 0; k < slots.size(); ++k)
      if (slots[k] == cs.test_mode) {
        pm.test_slot = k;
        break;
      }
  return pm;
}

/// Compact the observed primary outputs into the MISR in width-sized
/// chunks so *every* output bit influences the signature. (The former
/// single-absorb path silently discarded outputs beyond the MISR width
/// and beyond bit 63.) For machines with <= width observed outputs this
/// performs exactly one absorb per cycle with the same value as before.
void absorb_outputs(Misr& misr, const std::vector<bool>& values,
                    const std::vector<NetId>& po) {
  const std::size_t w = misr.width();
  std::uint64_t chunk = 0;
  std::size_t j = 0, absorbed = 0;
  for (NetId net : po) {
    if (values[net]) chunk |= std::uint64_t{1} << j;
    if (++j == w) {
      misr.absorb(chunk);
      chunk = 0;
      j = 0;
      ++absorbed;
    }
  }
  if (j > 0 || absorbed == 0) misr.absorb(chunk);
}

}  // namespace

Signatures run_self_test(const ControllerStructure& cs, const SelfTestPlan& plan,
                         std::optional<Fault> fault) {
  const Netlist& nl = cs.nl;
  if (!nl.finalized()) throw std::logic_error("run_self_test: netlist not finalized");
  const NetId fnet = fault ? fault->net : kNoNet;
  const bool fval = fault ? fault->stuck_value : false;
  const PinMap pins = map_pins(cs);

  Signatures sigs;
  Misr out_misr(plan.output_misr_width);
  std::vector<bool> in(nl.num_inputs(), false);
  std::vector<bool> values;  // scratch reused across cycles and sessions

  for (const SessionSpec& spec : plan.sessions) {
    Bank bank_a(nl, cs.reg_a, spec.role_a, spec.gen_seed);
    Bank bank_b(nl, cs.reg_b, spec.role_b, spec.gen_seed * 3 + 1);
    // The input generator is wider than the input count so that narrow
    // interfaces (1-2 bits) still see a long pseudo-random sequence.
    Lfsr input_gen(std::max<std::size_t>(8, cs.pi.size()), spec.input_seed);

    Netlist::SimState state = nl.initial_state();
    for (std::size_t cycle = 0; cycle < spec.cycles; ++cycle) {
      // Drive primary inputs from the input LFSR; assert test_mode.
      std::fill(in.begin(), in.end(), false);
      for (std::size_t k = 0; k < cs.pi.size(); ++k)
        in[pins.pi_slot[k]] = input_gen.bit(k);
      if (pins.test_slot != SIZE_MAX) in[pins.test_slot] = true;

      bank_a.deposit(state);
      bank_b.deposit(state);
      nl.evaluate(in, state, values, fnet, fval);

      absorb_outputs(out_misr, values, cs.po);

      bank_a.clock(values);
      bank_b.clock(values);
      input_gen.step();
    }

    // Record the compacting banks' final signatures.
    if (spec.role_a == RegRole::kCompress) sigs.register_sigs.push_back(bank_a.value());
    if (spec.role_b == RegRole::kCompress && !bank_b.empty())
      sigs.register_sigs.push_back(bank_b.value());
  }
  sigs.output_sig = out_misr.signature();
  return sigs;
}

CoverageResult measure_coverage(const ControllerStructure& cs, const SelfTestPlan& plan,
                                std::optional<std::vector<Fault>> faults) {
  const Signatures golden = run_self_test(cs, plan);
  const std::vector<Fault> list =
      faults ? std::move(*faults) : enumerate_stuck_faults(cs.nl);

  CoverageResult res;
  res.total = list.size();
  res.simulated = list.size();
  for (const Fault& f : list) {
    if (run_self_test(cs, plan, f) != golden) {
      ++res.detected;
    } else {
      res.undetected.push_back(f);
    }
  }
  return res;
}

// --- bit-parallel engine -----------------------------------------------------

namespace {

BilboMode mode_of(RegRole role) {
  switch (role) {
    case RegRole::kGenerate: return BilboMode::kGenerate;
    case RegRole::kCompress: return BilboMode::kCompress;
    case RegRole::kSystem: return BilboMode::kSystem;
    case RegRole::kHold: break;
  }
  return BilboMode::kHold;
}

/// Netlist glue around the lane-sliced LaneBilbo (bist/bilbo.hpp): maps
/// the bank's bit rows onto the structure's DFF slots and gathers each
/// bit's D-input net from the evaluated values. Constructed once per
/// worker; reset() reconfigures role and seed per session with no heap
/// traffic.
class LaneBank {
 public:
  LaneBank(const Netlist& nl, const std::vector<std::size_t>& idx, unsigned W)
      : idx_(&idx), lane_words_(W), reg_(idx.empty() ? 1 : idx.size(), W) {
    d_net_.assign(reg_.width(), kNoNet);
    for (std::size_t k = 0; k < idx.size(); ++k)
      d_net_[k] = nl.gate(nl.dffs()[idx[k]]).fanins[0];
  }

  void reset(RegRole role, std::uint64_t seed) {
    role_ = role;
    reg_.reset(role == RegRole::kGenerate ? (seed == 0 ? 1 : seed) : 0);
  }

  bool empty() const { return idx_->empty(); }

  /// Write the bank's current rows into the W-strided DFF lane image.
  void deposit(std::uint64_t* dff_lanes) const {
    const unsigned W = lane_words_;
    for (std::size_t k = 0; k < idx_->size(); ++k) {
      const std::uint64_t* row = reg_.row(k);
      std::uint64_t* dst = dff_lanes + (*idx_)[k] * W;
      for (unsigned w = 0; w < W; ++w) dst[w] = row[w];
    }
  }

  /// Clock the bank given the W-strided evaluated net values.
  void clock(const std::uint64_t* values) {
    const unsigned W = lane_words_;
    for (std::size_t k = 0; k < reg_.width(); ++k) {
      std::uint64_t* d = reg_.d_row(k);
      if (d_net_[k] == kNoNet) {
        for (unsigned w = 0; w < W; ++w) d[w] = 0;
      } else {
        const std::uint64_t* src = values + std::size_t{d_net_[k]} * W;
        for (unsigned w = 0; w < W; ++w) d[w] = src[w];
      }
    }
    reg_.clock(mode_of(role_));
  }

  /// OR into `diff` (W words) the lanes whose contents differ from lane 0.
  void accumulate_diff(std::uint64_t* diff) const { reg_.accumulate_diff(diff); }

  // Fleet-packing hooks (see run_fleet_shard): per-instance seeds and
  // pair-local comparisons instead of the lane-0 reference.
  std::size_t width() const { return reg_.width(); }
  void load_lane(std::size_t lane, std::uint64_t value) {
    reg_.load_lane(lane, value);
  }
  void accumulate_pair_diff(std::uint64_t* diff) const {
    reg_.accumulate_pair_diff(diff);
  }
  void accumulate_pair_d_diff(std::uint64_t* diff) const {
    reg_.accumulate_pair_d_diff(diff);
  }

 private:
  const std::vector<std::size_t>* idx_;
  unsigned lane_words_;
  RegRole role_ = RegRole::kHold;
  std::vector<NetId> d_net_;
  LaneBilbo reg_;
};

/// Gather the observed primary outputs into the lane MISR's chunk rows
/// with the same width-sized compaction as the scalar absorb_outputs.
void absorb_output_lanes(LaneMisr& misr, const std::uint64_t* values,
                         const std::vector<NetId>& po, unsigned W) {
  const std::size_t width = misr.width();
  std::size_t j = 0, absorbed = 0;
  for (NetId net : po) {
    const std::uint64_t* src = values + std::size_t{net} * W;
    std::uint64_t* row = misr.chunk_row(j);
    for (unsigned w = 0; w < W; ++w) row[w] = src[w];
    if (++j == width) {
      misr.absorb(j);
      j = 0;
      ++absorbed;
    }
  }
  if (j > 0 || absorbed == 0) misr.absorb(j);
}

/// Everything one campaign worker needs across fault batches: the compiled
/// program, the event evaluator's resident state, lane-sliced banks/MISR,
/// the input generator, and every lane buffer. Constructed once per worker;
/// run_self_test_lanes then performs zero heap allocations in the steady
/// state — across cycles, sessions AND batches, at every lane width
/// (verified by the allocation-counting hook in tests/allocfree_test.cpp).
struct CampaignScratch {
  CompiledNetlist cn;
  EventScratch ev;
  LaneBank bank_a, bank_b;
  LaneMisr out_misr;
  Lfsr input_gen;
  std::vector<std::uint64_t> in_lanes;        // W words per input slot
  std::vector<std::uint64_t> dff_lanes;       // W words per DFF
  std::vector<std::uint64_t> init_dff_lanes;
  std::vector<std::uint64_t> diff_mask;       // W-word detected-lane mask
  std::vector<LaneFault> batch;
  std::uint64_t cycles = 0;  // machine cycles simulated by this worker

  // Fleet extras (run_fleet_shard only; idle in campaign use). Sized at
  // construction so fleet runs stay allocation-free in the steady state
  // just like campaign batches.
  LaneLfsr fleet_input_gen;                    // per-lane input sequences
  std::vector<std::uint64_t> fleet_po_stream;  // pair masks, W words each:
  std::vector<std::uint64_t> fleet_d_stream;   //   even bit 2j = pair j
  std::vector<std::uint64_t> fleet_misr_sig;
  std::vector<std::uint64_t> fleet_any_sig;
  std::vector<Fault> fleet_faults;             // defect-sampler sink
  std::vector<char> fleet_defective;           // per-pair defect flags

  /// `proto` is a compiled program shared by all workers: copying its
  /// vectors is far cheaper than re-running the compile (CSR build +
  /// AND-node folding fixpoint) once per thread, and each worker still
  /// gets its own mutable mask state. Takes only `output_misr_width`, not
  /// the whole SelfTestPlan: scratch is pooled per (structure, MISR width)
  /// warm state and lane width -- see JobCache's warm key -- and this
  /// signature is what proves plans differing in anything else can share
  /// it safely.
  CampaignScratch(const ControllerStructure& cs, const CompiledNetlist& proto,
                  std::size_t output_misr_width, const PinMap& pins)
      : cn(proto),
        bank_a(cs.nl, cs.reg_a, proto.lane_words()),
        bank_b(cs.nl, cs.reg_b, proto.lane_words()),
        out_misr(output_misr_width, proto.lane_words()),
        input_gen(std::max<std::size_t>(8, cs.pi.size())),
        in_lanes(cs.nl.num_inputs() * proto.lane_words(), 0),
        dff_lanes(cs.nl.num_dffs() * proto.lane_words(), 0),
        diff_mask(proto.lane_words(), 0),
        fleet_input_gen(std::max<std::size_t>(8, cs.pi.size()),
                        proto.lane_words()),
        fleet_po_stream(proto.lane_words(), 0),
        fleet_d_stream(proto.lane_words(), 0),
        fleet_misr_sig(proto.lane_words(), 0),
        fleet_any_sig(proto.lane_words(), 0),
        fleet_defective(fleet_instances_per_run(proto.lane_words()), 0) {
    const unsigned W = proto.lane_words();
    const Netlist::SimState init = cs.nl.initial_state();
    init_dff_lanes.assign(init.dff.size() * W, 0);
    for (std::size_t k = 0; k < init.dff.size(); ++k)
      if (init.dff[k])
        for (unsigned w = 0; w < W; ++w)
          init_dff_lanes[k * W + w] = ~std::uint64_t{0};
    // The test-mode pin and the unused input slots never change: set them
    // once, the per-cycle loop only rewrites toggled functional inputs.
    if (pins.test_slot != SIZE_MAX)
      for (unsigned w = 0; w < W; ++w)
        in_lanes[pins.test_slot * W + w] = ~std::uint64_t{0};
    batch.reserve(faults_per_run(W));
  }
};

/// One full self-test execution over all 64·W lanes; fills sc.diff_mask
/// with the set of lanes (one bit per lane, lane 0 excluded) whose final
/// signatures differ from the fault-free lane 0 — i.e. the detected
/// faults of this batch.
void run_self_test_lanes(const ControllerStructure& cs, const SelfTestPlan& plan,
                         const PinMap& pins, CampaignScratch& sc) {
  const unsigned W = sc.cn.lane_words();
  sc.cn.set_faults(sc.batch);
  sc.out_misr.reset();
  std::fill(sc.diff_mask.begin(), sc.diff_mask.end(), 0);

  for (const SessionSpec& spec : plan.sessions) {
    sc.bank_a.reset(spec.role_a, spec.gen_seed);
    sc.bank_b.reset(spec.role_b, spec.gen_seed * 3 + 1);
    sc.input_gen.seed(spec.input_seed);
    std::copy(sc.init_dff_lanes.begin(), sc.init_dff_lanes.end(),
              sc.dff_lanes.begin());
    // Session boundary: invalidate the resident values so the first cycle
    // takes the full-evaluation path (the re-seeded sources rewrite most
    // words anyway, and this keeps the bit-exactness argument trivial).
    sc.cn.reset(sc.ev);

    // The input LFSR word is diffed cycle-to-cycle: only PIs whose bit
    // toggled rewrite their (broadcast) lane group. ~state() forces a full
    // rewrite on cycle 0.
    std::uint64_t prev_in = ~sc.input_gen.state();
    for (std::size_t cycle = 0; cycle < spec.cycles; ++cycle) {
      const std::uint64_t in_word = sc.input_gen.state();
      const std::uint64_t delta = in_word ^ prev_in;
      prev_in = in_word;
      for (std::size_t k = 0; k < cs.pi.size(); ++k)
        if ((delta >> k) & 1) {
          const std::uint64_t word = sc.input_gen.bit_lanes(k);
          std::uint64_t* dst = sc.in_lanes.data() + pins.pi_slot[k] * W;
          for (unsigned w = 0; w < W; ++w) dst[w] = word;
        }

      sc.bank_a.deposit(sc.dff_lanes.data());
      sc.bank_b.deposit(sc.dff_lanes.data());
      sc.cn.evaluate_event(sc.in_lanes.data(), sc.dff_lanes.data(), sc.ev);
      const std::uint64_t* values = sc.ev.values.data();

      absorb_output_lanes(sc.out_misr, values, cs.po, W);

      sc.bank_a.clock(values);
      sc.bank_b.clock(values);
      sc.input_gen.step();
      ++sc.cycles;
    }

    if (spec.role_a == RegRole::kCompress)
      sc.bank_a.accumulate_diff(sc.diff_mask.data());
    if (spec.role_b == RegRole::kCompress && !sc.bank_b.empty())
      sc.bank_b.accumulate_diff(sc.diff_mask.data());
  }
  sc.out_misr.accumulate_diff(sc.diff_mask.data());
  sc.cn.clear_faults();
  sc.diff_mask[0] &= ~std::uint64_t{1};  // lane 0 is the reference, not a fault
}

// Per-(session, role) salts for fleet sub-seed derivation: splitmix64 is a
// bijection, so for any fixed salt the sub-seeds inherit the instance
// keys' pairwise distinctness.
constexpr std::uint64_t kFleetInputSalt = 0x464c4545542d494eULL;  // "FLEET-IN"
constexpr std::uint64_t kFleetGenASalt = 0x464c4545542d4741ULL;   // "FLEET-GA"
constexpr std::uint64_t kFleetGenBSalt = 0x464c4545542d4742ULL;   // "FLEET-GB"

/// One full self-test execution of n_pairs chip instances packed as
/// (reference, faulty) lane pairs. The caller has loaded sc.batch with the
/// sampled defects (lane 2j+1 for instance j); this fills the four fleet
/// pair masks (even bit 2j = pair j): PO stream diff, compressing-bank D
/// stream diff, final output-MISR signature diff, and any-signature diff.
void run_fleet_lanes(const ControllerStructure& cs, const SelfTestPlan& plan,
                     const PinMap& pins, CampaignScratch& sc, std::size_t n_pairs,
                     std::uint64_t base_seed, std::uint64_t first_instance) {
  const unsigned W = sc.cn.lane_words();
  constexpr std::uint64_t kEven = 0x5555555555555555ULL;
  sc.cn.set_faults(sc.batch);
  sc.out_misr.reset();
  std::fill(sc.fleet_po_stream.begin(), sc.fleet_po_stream.end(), 0);
  std::fill(sc.fleet_d_stream.begin(), sc.fleet_d_stream.end(), 0);
  std::fill(sc.fleet_misr_sig.begin(), sc.fleet_misr_sig.end(), 0);
  std::fill(sc.fleet_any_sig.begin(), sc.fleet_any_sig.end(), 0);

  for (std::size_t si = 0; si < plan.sessions.size(); ++si) {
    const SessionSpec& spec = plan.sessions[si];
    // Broadcast defaults first (also covers the unused tail lanes when the
    // final run is short), then overwrite the instance pairs with their
    // derived seeds -- both lanes of a pair get the SAME seed, so the only
    // divergence inside a pair is the injected defect.
    sc.bank_a.reset(spec.role_a, spec.gen_seed);
    sc.bank_b.reset(spec.role_b, spec.gen_seed * 3 + 1);
    sc.fleet_input_gen.reset();
    const std::size_t in_width = sc.fleet_input_gen.width();
    for (std::size_t j = 0; j < n_pairs; ++j) {
      const std::uint64_t key =
          fleet_instance_key(base_seed, first_instance + j);
      const std::uint64_t in_state =
          nonzero_lfsr_state(splitmix64(key ^ (kFleetInputSalt + si)), in_width);
      sc.fleet_input_gen.seed_lane(2 * j, in_state);
      sc.fleet_input_gen.seed_lane(2 * j + 1, in_state);
      if (spec.role_a == RegRole::kGenerate && !sc.bank_a.empty()) {
        const std::uint64_t s = nonzero_lfsr_state(
            splitmix64(key ^ (kFleetGenASalt + si)), sc.bank_a.width());
        sc.bank_a.load_lane(2 * j, s);
        sc.bank_a.load_lane(2 * j + 1, s);
      }
      if (spec.role_b == RegRole::kGenerate && !sc.bank_b.empty()) {
        const std::uint64_t s = nonzero_lfsr_state(
            splitmix64(key ^ (kFleetGenBSalt + si)), sc.bank_b.width());
        sc.bank_b.load_lane(2 * j, s);
        sc.bank_b.load_lane(2 * j + 1, s);
      }
    }
    std::copy(sc.init_dff_lanes.begin(), sc.init_dff_lanes.end(),
              sc.dff_lanes.begin());
    sc.cn.reset(sc.ev);

    for (std::size_t cycle = 0; cycle < spec.cycles; ++cycle) {
      // Per-lane stimulus: every PI row is rewritten from the lane LFSR
      // each cycle (no broadcast/delta shortcut -- lanes genuinely differ).
      for (std::size_t k = 0; k < cs.pi.size(); ++k) {
        const std::uint64_t* src = sc.fleet_input_gen.row(k);
        std::uint64_t* dst = sc.in_lanes.data() + pins.pi_slot[k] * W;
        for (unsigned w = 0; w < W; ++w) dst[w] = src[w];
      }

      sc.bank_a.deposit(sc.dff_lanes.data());
      sc.bank_b.deposit(sc.dff_lanes.data());
      sc.cn.evaluate_event(sc.in_lanes.data(), sc.dff_lanes.data(), sc.ev);
      const std::uint64_t* values = sc.ev.values.data();

      absorb_output_lanes(sc.out_misr, values, cs.po, W);
      // Streaming observability: did the defect show on a primary output
      // THIS cycle? (What an external tester watching the pins would see.)
      for (NetId net : cs.po) {
        const std::uint64_t* src = values + std::size_t{net} * W;
        for (unsigned w = 0; w < W; ++w)
          sc.fleet_po_stream[w] |= (src[w] ^ (src[w] >> 1)) & kEven;
      }

      sc.bank_a.clock(values);
      sc.bank_b.clock(values);
      // ...and did it reach a compacting register's D inputs? (clock()
      // leaves the gathered D rows in place for the pair compare.)
      if (spec.role_a == RegRole::kCompress)
        sc.bank_a.accumulate_pair_d_diff(sc.fleet_d_stream.data());
      if (spec.role_b == RegRole::kCompress && !sc.bank_b.empty())
        sc.bank_b.accumulate_pair_d_diff(sc.fleet_d_stream.data());
      sc.fleet_input_gen.step();
      ++sc.cycles;
    }

    if (spec.role_a == RegRole::kCompress)
      sc.bank_a.accumulate_pair_diff(sc.fleet_any_sig.data());
    if (spec.role_b == RegRole::kCompress && !sc.bank_b.empty())
      sc.bank_b.accumulate_pair_diff(sc.fleet_any_sig.data());
  }
  sc.out_misr.accumulate_pair_diff(sc.fleet_misr_sig.data());
  for (unsigned w = 0; w < W; ++w)
    sc.fleet_any_sig[w] |= sc.fleet_misr_sig[w];
  sc.cn.clear_faults();
}

/// Ends a scratch lease, also when a sampler or engine throw unwinds the
/// worker: the scratch goes back to its warm state's free-list.
struct ScratchReturn {
  CampaignWarmState* warm = nullptr;
  void operator()(CampaignScratch* sc) const;
};
using ScratchLease = std::unique_ptr<CampaignScratch, ScratchReturn>;

}  // namespace

// --- warm campaign state -----------------------------------------------------

/// Pin map plus, per lane width, a compiled program (built on first lease)
/// and a scratch free-list. Defined here so it can hold the TU-local
/// CampaignScratch; callers only ever see the opaque handle.
class CampaignWarmState {
 public:
  // Deliberately takes output_misr_width rather than a SelfTestPlan: the
  // cache keys warm state on (structure, MISR width) only, and this
  // constructor consuming nothing else from a plan is what makes that key
  // sufficient by construction.
  CampaignWarmState(const ControllerStructure& cs, std::size_t output_misr_width)
      : cs_(&cs), misr_width_(output_misr_width), pins_(map_pins(cs)) {}

  const PinMap& pins() const { return pins_; }

  /// Why this state cannot serve (cs, misr_width); empty when it can.
  std::string mismatch(const ControllerStructure& cs, std::size_t misr_width) const {
    if (&cs != cs_) return "warm state was built for a different structure object";
    if (misr_width == misr_width_) return "";
    return "warm misr_width=" + std::to_string(misr_width_) +
           " != plan output_misr_width=" + std::to_string(misr_width);
  }

  /// Lease a scratch of lane width W: reuse a parked one (warm start) or
  /// build a fresh one from W's program, compiling it on first use.
  ScratchLease acquire(unsigned W) {
    Width& wd = width(W);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!wd.free.empty()) {
        ScratchLease sc(wd.free.back().release(), {this});
        wd.free.pop_back();
        reuses_.fetch_add(1, std::memory_order_relaxed);
        return sc;
      }
      if (!wd.proto) wd.proto = std::make_unique<CompiledNetlist>(cs_->nl, W);
    }
    // A published program is immutable: copying it needs no lock.
    builds_.fetch_add(1, std::memory_order_relaxed);
    return ScratchLease(new CampaignScratch(*cs_, *wd.proto, misr_width_, pins_),
                        {this});
  }

  void release(CampaignScratch* sc) {
    std::lock_guard<std::mutex> lock(mu_);
    width(sc->cn.lane_words()).free.emplace_back(sc);
  }

  std::size_t reuses() const { return reuses_.load(std::memory_order_relaxed); }
  std::size_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  struct Width {
    std::unique_ptr<const CompiledNetlist> proto;
    std::vector<std::unique_ptr<CampaignScratch>> free;
  };
  Width& width(unsigned W) { return widths_[W == 8 ? 2 : W == 4 ? 1 : 0]; }

  const ControllerStructure* cs_;
  std::size_t misr_width_;
  PinMap pins_;
  std::mutex mu_;
  std::array<Width, 3> widths_;  // W = 1, 4, 8
  std::atomic<std::size_t> reuses_{0};
  std::atomic<std::size_t> builds_{0};
};

void ScratchReturn::operator()(CampaignScratch* sc) const { warm->release(sc); }

std::shared_ptr<CampaignWarmState> make_campaign_warm_state(
    const ControllerStructure& cs, std::size_t output_misr_width) {
  return std::make_shared<CampaignWarmState>(cs, output_misr_width);
}

std::size_t campaign_warm_reuses(const CampaignWarmState& warm) {
  return warm.reuses();
}
std::size_t campaign_warm_builds(const CampaignWarmState& warm) {
  return warm.builds();
}

void CampaignOptions::validate(const SelfTestPlan& plan) const {
  // Collect EVERY problem before throwing, so a caller with three bad
  // fields fixes them in one round trip instead of three.
  std::string problems;
  const auto add = [&problems](const std::string& p) {
    if (!problems.empty()) problems += "; ";
    problems += p;
  };
  if (num_threads == 0) add("num_threads must be >= 1; got 0");
  if (executor != nullptr && num_threads > 1)
    add("scheduler-owned campaign (executor set) must pass num_threads = 1: "
        "nesting a per-campaign thread pool under the shared work-stealing "
        "pool oversubscribes every core -- size the shared pool with the "
        "orchestrator's --jobs flag instead; got num_threads = " +
        std::to_string(num_threads));
  if (plan.sessions.empty()) add("plan has no sessions");
  if (plan.output_misr_width == 0 || plan.output_misr_width > 64)
    add("plan output_misr_width must be in [1, 64]; got " +
        std::to_string(plan.output_misr_width));
  if (!problems.empty())
    throw Error(ErrorCode::kInvalidInput, "invalid fault campaign options",
                problems);
}

namespace {

/// The batch loop and verdict bookkeeping of every lane fault simulation.
/// Batches one fault per lane (lane 0 stays fault-free) at the width
/// fill_lane_words picks for one worker's share of the classes, hands each
/// batch to `kernel` -- which fills sc.diff_mask with the detected lanes --
/// and expands the per-class verdicts over the full list. One budget work
/// unit is one fault class; `stage` labels degradation.
CampaignResult sweep_fault_batches(
    const ControllerStructure& cs, std::size_t output_misr_width,
    const CampaignOptions& options, const std::vector<Fault>& list,
    const char* stage,
    const std::function<void(const PinMap&, CampaignScratch&)>& kernel) {
  const Netlist& nl = cs.nl;
  CampaignResult res;
  res.raw.total = list.size();
  // A budget that is exhausted (or empty) on arrival skips all simulation:
  // zero batches ran, every fault is unsimulated, coverage() reports 0.
  const bool skip_all =
      options.budget.exhausted() || options.budget.work_allowance() == 0;

  std::vector<Fault> reps;
  std::vector<std::size_t> class_of;
  if (options.collapse) {
    CollapsedFaults cf = collapse_faults(nl, list);
    reps = std::move(cf.representatives);
    class_of = std::move(cf.class_of);
  } else {
    reps = list;
    class_of.resize(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) class_of[i] = i;
  }
  res.collapsed_total = reps.size();

  std::vector<char> rep_detected(reps.size(), 0);
  std::vector<char> rep_simulated(reps.size(), 0);

  // A skipped sweep falls through to the (all-unsimulated) accounting.
  if (!skip_all && !reps.empty()) {
    // Warm state carries the compiled programs, the pin map and parked
    // scratch for this exact structure; verify the binding before trusting
    // any of it. A local one compiles the program once for all chunks.
    std::optional<CampaignWarmState> local_warm;
    CampaignWarmState& warm =
        options.warm ? *options.warm : local_warm.emplace(cs, output_misr_width);
    const std::string mismatch = warm.mismatch(cs, output_misr_width);
    if (!mismatch.empty())
      throw Error(ErrorCode::kInvalidInput,
                  "run_fault_campaign: incompatible warm state", mismatch);
    const PinMap& pins = warm.pins();
    const std::size_t parallelism =
        options.executor
            ? std::max<std::size_t>(1, options.executor->max_parallelism())
            : options.num_threads;
    // Each run simulates one fault per lane, minus the reserved fault-free
    // reference lane 0, at the widest width one worker's share fills.
    const unsigned W = fill_lane_words(reps.size() / parallelism, faults_per_run);
    const std::size_t batch_size = faults_per_run(W);
    const std::size_t num_batches = (reps.size() + batch_size - 1) / batch_size;
    const std::size_t num_chunks =
        std::max<std::size_t>(1, std::min(parallelism, num_batches));

    // Batch b covers reps [Bb, Bb+B); chunk c takes batches c, c+K, ...
    // (K = num_chunks). Chunks write disjoint rep_detected / rep_simulated
    // ranges, so the result is identical for every chunk count, thread
    // count and execution interleaving -- whether the chunks run on the
    // internal pool below or on the scheduler's shared pool via
    // options.executor (a wall-clock budget may truncate different batches
    // per run; every completed batch's verdicts stay exact).
    std::vector<std::uint64_t> chunk_cycles(num_chunks, 0);
    std::vector<std::uint64_t> chunk_ops(num_chunks, 0);
    std::vector<std::size_t> chunk_runs(num_chunks, 0);
    auto chunk_fn = [&](std::size_t c) {
      Budget bud = options.budget;  // per-chunk copy, absolute deadline
      const ScratchLease lease = warm.acquire(W);  // zero rebuild on reuse
      CampaignScratch& sc = *lease;
      const std::uint64_t cycles0 = sc.cycles;
      const std::uint64_t ops0 = sc.ev.ops_evaluated;
      for (std::size_t b = c; b < num_batches; b += num_chunks) {
        // Trim the run to the allowance left.
        const std::size_t begin = b * batch_size;
        const std::size_t end =
            begin + std::min<std::uint64_t>(
                        std::min(reps.size(), begin + batch_size) - begin,
                        bud.work_allowance() - bud.work_spent());
        if (end == begin || bud.exhausted()) break;
        bud.spend(end - begin);
        sc.batch.clear();
        for (std::size_t i = begin; i < end; ++i)
          sc.batch.push_back({reps[i].net, reps[i].stuck_value,
                              static_cast<unsigned>(i - begin + 1)});
        kernel(pins, sc);
        for (std::size_t i = begin; i < end; ++i) {
          rep_simulated[i] = 1;
          const unsigned lane = static_cast<unsigned>(i - begin + 1);
          if ((sc.diff_mask[lane >> 6] >> (lane & 63)) & 1) rep_detected[i] = 1;
        }
        ++chunk_runs[c];
      }
      chunk_cycles[c] = sc.cycles - cycles0;
      chunk_ops[c] = sc.ev.ops_evaluated - ops0;
    };

    if (options.executor && num_chunks > 1) {
      options.executor->run_chunks(num_chunks, chunk_fn);
    } else {
      run_on_threads(num_chunks, chunk_fn);
    }
    res.ops_per_cycle = nl.topo_order().size();
    for (std::size_t c = 0; c < num_chunks; ++c) {
      res.cycles_simulated += chunk_cycles[c];
      res.ops_evaluated += chunk_ops[c];
      res.session_runs += chunk_runs[c];
    }
  }

  // One deterministic allocation regardless of the detected count (keeps
  // campaign heap traffic independent of plan length; see allocfree_test).
  // Faults whose class was never simulated land in neither bucket: not
  // detected, not listed as undetected -- only counted by total.
  res.raw.undetected.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::size_t cls = class_of[i];
    if (!rep_simulated[cls]) continue;
    ++res.faults_simulated;
    if (rep_detected[cls]) {
      ++res.raw.detected;
    } else {
      res.raw.undetected.push_back(list[i]);
    }
  }
  res.raw.simulated = res.faults_simulated;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    res.collapsed_detected += rep_detected[i] ? 1 : 0;
    res.collapsed_simulated += rep_simulated[i] ? 1 : 0;
  }

  res.degradation.stage = stage;
  res.degradation.work_done = res.collapsed_simulated;
  res.degradation.work_total = res.collapsed_total;
  res.degradation.degraded = res.collapsed_simulated < res.collapsed_total;
  if (res.degradation.degraded) {
    Budget probe = options.budget;
    res.degradation.reason = probe.exhausted() ? probe.reason() : "work-allowance";
    res.degradation.detail =
        strprintf("simulated %zu/%zu faults; coverage() counts the rest as "
                  "undetected",
                  res.faults_simulated, res.raw.total);
  }
  return res;
}

}  // namespace

CampaignResult run_fault_campaign(const ControllerStructure& cs, const SelfTestPlan& plan,
                                  const CampaignOptions& options,
                                  std::optional<std::vector<Fault>> faults) {
  if (!cs.nl.finalized())
    throw std::logic_error("run_fault_campaign: netlist not finalized");
  // Reject every bad option before any simulation work, so a bad driver
  // flag fails loudly instead of misbehaving batches later.
  options.validate(plan);
  return sweep_fault_batches(
      cs, plan.output_misr_width, options,
      faults ? std::move(*faults) : enumerate_stuck_faults(cs.nl), "campaign",
      [&](const PinMap& pins, CampaignScratch& sc) {
        run_self_test_lanes(cs, plan, pins, sc);
      });
}

// --- fleet shard kernel ------------------------------------------------------

std::uint64_t fleet_instance_key(std::uint64_t base_seed,
                                 std::uint64_t instance) {
  // base + (instance+1)*odd is injective in `instance` (mod 2^64) and the
  // SplitMix64 finalizer is a bijection, so keys are pairwise distinct.
  return splitmix64(base_seed + (instance + 1) * 0x9e3779b97f4a7c15ULL);
}

void FleetShardStats::merge(const FleetShardStats& o) {
  instances += o.instances;
  defective += o.defective;
  po_stream_detected += o.po_stream_detected;
  any_stream_detected += o.any_stream_detected;
  misr_detected += o.misr_detected;
  sig_detected += o.sig_detected;
  aliases += o.aliases;
  escapes += o.escapes;
  session_runs += o.session_runs;
  cycles += o.cycles;
  for (std::size_t b = 0; b < signature_histogram.size(); ++b)
    signature_histogram[b] += o.signature_histogram[b];
}

FleetShardStats run_fleet_shard(const ControllerStructure& cs,
                                const SelfTestPlan& plan,
                                CampaignWarmState& warm,
                                std::uint64_t base_seed, std::uint64_t first,
                                std::uint64_t count,
                                const FleetDefectSampler& sampler,
                                const Budget& budget) {
  if (!cs.nl.finalized())
    throw std::logic_error("run_fleet_shard: netlist not finalized");
  std::string problems;
  if (plan.sessions.empty()) problems = "plan has no sessions";
  const std::string mismatch = warm.mismatch(cs, plan.output_misr_width);
  if (!mismatch.empty())
    problems += std::string(problems.empty() ? "" : "; ") + mismatch;
  if (!sampler)
    problems += std::string(problems.empty() ? "" : "; ") + "null defect sampler";
  if (!problems.empty())
    throw Error(ErrorCode::kInvalidInput, "invalid fleet shard", problems);

  // Runs as wide as the shard fills.
  const unsigned W =
      fill_lane_words(static_cast<std::size_t>(count), fleet_instances_per_run);
  const std::size_t per_run = fleet_instances_per_run(W);
  const ScratchLease lease = warm.acquire(W);
  CampaignScratch& sc = *lease;
  const std::uint64_t cycles0 = sc.cycles;
  Budget bud = budget;

  FleetShardStats st;
  std::uint64_t done = 0;
  while (done < count) {
    // Trim the run to the allowance left; truncation leaves
    // st.instances < count with every count exact.
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        {per_run, count - done, bud.work_allowance() - bud.work_spent()}));
    if (n == 0 || bud.exhausted()) break;
    bud.spend(n);
    sc.batch.clear();
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t instance = first + done + j;
      sc.fleet_faults.clear();
      sampler(instance, sc.fleet_faults);
      sc.fleet_defective[j] = sc.fleet_faults.empty() ? 0 : 1;
      for (const Fault& f : sc.fleet_faults)
        sc.batch.push_back(
            {f.net, f.stuck_value, static_cast<unsigned>(2 * j + 1)});
    }
    run_fleet_lanes(cs, plan, warm.pins(), sc, n, base_seed, first + done);
    ++st.session_runs;

    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t pos = 2 * j;  // pair flag = even lane bit
      const std::size_t word = pos >> 6;
      const unsigned bit = static_cast<unsigned>(pos & 63);
      const bool po = (sc.fleet_po_stream[word] >> bit) & 1;
      const bool dstr = (sc.fleet_d_stream[word] >> bit) & 1;
      const bool misr = (sc.fleet_misr_sig[word] >> bit) & 1;
      const bool sig = (sc.fleet_any_sig[word] >> bit) & 1;
      const bool any_stream = po || dstr;
      ++st.instances;
      st.defective += sc.fleet_defective[j] ? 1 : 0;
      st.po_stream_detected += po ? 1 : 0;
      st.any_stream_detected += any_stream ? 1 : 0;
      st.misr_detected += misr ? 1 : 0;
      st.sig_detected += sig ? 1 : 0;
      st.aliases += (po && !misr) ? 1 : 0;
      st.escapes += (any_stream && !sig) ? 1 : 0;
      if (sc.fleet_defective[j])
        ++st.signature_histogram[sc.out_misr.lane_signature(2 * j + 1) & 63];
    }
    done += n;
  }
  st.cycles = sc.cycles - cycles0;
  return st;
}

CoverageResult measure_functional_coverage(const ControllerStructure& cs,
                                           std::size_t cycles,
                                           std::optional<std::vector<Fault>> faults,
                                           std::uint64_t seed, const Budget& budget,
                                           Degradation* degradation) {
  const std::vector<Fault> list =
      faults ? std::move(*faults) : enumerate_stuck_faults(cs.nl);
  // Uncollapsed on one worker, so runs are as wide as the list fills. The
  // scratch's output MISR idles at its default width.
  CampaignOptions opt;
  opt.collapse = false;
  opt.budget = budget;
  CampaignResult camp = sweep_fault_batches(
      cs, SelfTestPlan().output_misr_width, opt, list, "functional-coverage",
      [&](const PinMap& pins, CampaignScratch& sc) {
        // One run: broadcast Lfsr(max(8, |pi|), seed) to the functional
        // inputs, clock every DFF from its D net, and OR each cycle's
        // primary-output difference from lane 0 into sc.diff_mask.
        const unsigned W = sc.cn.lane_words();
        sc.cn.set_faults(sc.batch);
        std::fill(sc.diff_mask.begin(), sc.diff_mask.end(), 0);
        // Self-test runs keep the test_mode row at 1; hold it at 0 here.
        std::uint64_t* test_row = pins.test_slot == SIZE_MAX
                                      ? nullptr
                                      : sc.in_lanes.data() + pins.test_slot * W;
        if (test_row) std::fill(test_row, test_row + W, 0);
        sc.input_gen.seed(seed);
        sc.dff_lanes = sc.init_dff_lanes;
        sc.cn.reset(sc.ev);
        for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
          // Unchanged input rows raise no events in evaluate_event.
          for (std::size_t k = 0; k < cs.pi.size(); ++k)
            std::fill_n(sc.in_lanes.data() + pins.pi_slot[k] * W, W,
                        sc.input_gen.bit_lanes(k));
          sc.cn.evaluate_event(sc.in_lanes.data(), sc.dff_lanes.data(), sc.ev);
          const std::uint64_t* values = sc.ev.values.data();
          ++sc.cycles;
          for (NetId net : cs.nl.outputs()) {
            const std::uint64_t* src = values + std::size_t{net} * W;
            for (unsigned w = 0; w < W; ++w)
              sc.diff_mask[w] |= src[w] ^ (0 - (src[0] & 1));
          }
          // Lane 0 and the unused lanes of a short run are fault-free, so
          // the set bits are exactly the diverged faults: stop once all are.
          std::size_t diverged = 0;
          for (unsigned w = 0; w < W; ++w) diverged += popcount64(sc.diff_mask[w]);
          if (diverged == sc.batch.size()) break;
          for (std::size_t k = 0; k < sc.cn.num_dffs(); ++k)
            std::copy_n(values + std::size_t{sc.cn.dff_d(k)} * W, W,
                        sc.dff_lanes.data() + k * W);
          sc.input_gen.step();
        }
        if (test_row) std::fill(test_row, test_row + W, ~std::uint64_t{0});
        sc.cn.clear_faults();
      });
  if (degradation) *degradation = std::move(camp.degradation);
  return std::move(camp.raw);
}

}  // namespace stc
