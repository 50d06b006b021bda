// perfbench_driver -- the measuring half of the repository benchmark.
//
// Runs one workload against the stc library and prints ONE JSON record of
// raw measurements on stdout (progress goes to stderr). perfbench/run.py
// builds this program, runs it and turns the record into the benchmark's
// metrics; see perfbench/README.md for the workloads and the metric map.
//
//   perfbench_driver --workload synth|faultsim|fleet|sweep --seed N
//                    [--seconds S] [--trace-out PATH] [--list-inputs]
//
// Untraced mode: set up the workload several times (median = setup_s),
// then run whole passes until S seconds have elapsed (at least one), then
// run the oracles on the first pass's outputs.
// Traced mode (--trace-out): one untraced set-up and pass and the oracles,
// then one traced set-up and pass whose spans go to PATH as Chrome
// trace-event JSON; the two passes give the tracing overhead.
// --list-inputs prints the workload's inputs (fixed and seeded) and exits.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchdata/iwls93.hpp"
#include "bist/architectures.hpp"
#include "bist/lfsr.hpp"
#include "encoding/encoded_fsm.hpp"
#include "fleet/fleet.hpp"
#include "fsm/generate.hpp"
#include "jobs/orchestrator.hpp"
#include "logic/factor.hpp"
#include "ostr/ostr.hpp"
#include "ostr/verify.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace stc;
using perfbench::json_string;
using perfbench::Scope;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Seeded value number `stream` of the workload seed: every seeded input
/// is drawn from its own stream, so adding one never shifts the others.
std::uint64_t seeded(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(seed * 0x9E3779B97F4A7C15ULL + splitmix64(stream + 1));
}

/// `count` distinct entries of `v` chosen by `rng` (all of them when v is
/// smaller), in their original order.
template <typename T>
std::vector<T> sample(const std::vector<T>& v, std::size_t count, Rng& rng) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const std::size_t k = std::min(count, v.size());
  for (std::size_t i = 0; i < k; ++i)
    std::swap(idx[i], idx[i + rng.below(idx.size() - i)]);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  std::vector<T> out;
  for (std::size_t i : idx) out.push_back(v[i]);
  return out;
}

/// Threads of the multi-threaded workloads: nproc, at most 4.
std::size_t worker_threads() {
  return std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

std::string fault_list_json(const std::vector<Fault>& faults) {
  std::string s = "[";
  for (std::size_t i = 0; i < faults.size(); ++i)
    s += (i ? "," : "") + std::to_string(faults[i].net) + "/" +
         (faults[i].stuck_value ? "1" : "0");
  return json_string(s + "]");
}

/// Raw measurements of one run, printed as the JSON record.
struct Record {
  std::vector<double> setup_s;       // one sample per untraced set-up
  std::vector<double> pass_s;        // one sample per untraced pass
  std::map<std::string, std::vector<double>> series;  // per-pass parts
  std::map<std::string, double> counters;  // from the first pass
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  void add(const std::string& name, double v) { counters[name] += v; }
};

constexpr Technology kTechs[] = {Technology::kTwoLevel, Technology::kMultiLevel};

ControllerStructure build_fig(int fig, const MealyMachine& m,
                              const EncodedFsm& enc, const Realization& real,
                              Technology tech) {
  switch (fig) {
    case 1: return build_fig1(enc, MinimizerKind::kAuto, tech);
    case 2: return build_fig2(enc, MinimizerKind::kAuto, tech);
    case 3: return build_fig3(enc, MinimizerKind::kAuto, tech);
    default: return build_fig4(m, real, MinimizerKind::kAuto, tech);
  }
}

/// Traced-run probe of the logic layer: the fig1 block (next state and
/// outputs of the encoded machine), minimized and factored by the public
/// entry points build_figN calls internally. Labeled as a probe so the
/// overhead computation can leave it out.
void probe_logic(Tracer& tracer, const EncodedFsm& enc, bool factor) {
  if (!tracer.on()) return;
  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
  MinimizedBlock mb;
  {
    Scope s(tracer, "logic.minimize_for", -1, "\"probe\":true");
    mb = minimize_for(enc.spec, tables, MinimizerKind::kAuto);
  }
  if (!factor || (!mb.pla && mb.covers.size() > 64)) return;
  Scope s(tracer, "logic.extract_factored", -1, "\"probe\":true");
  const FactoredNetwork net =
      mb.pla ? extract_factored(*mb.pla) : extract_factored(mb.covers);
  (void)net;
}

/// Everything one corpus or seeded machine needs before its structures
/// are built: OSTR, the Theorem-1 realization, its check and the encoding.
struct Prepared {
  OstrResult ostr;
  Realization real;
  VerifyReport verify;
  EncodedFsm enc;
};

Prepared prepare(const MealyMachine& m, const OstrOptions& opt, Tracer& tracer,
                 bool probe_factor) {
  Prepared p;
  PartitionStore store(&m);
  {
    Scope s(tracer, "ostr.solve_ostr");
    p.ostr = solve_ostr(m, opt, store);
  }
  {
    Scope s(tracer, "ostr.build_realization");
    p.real = build_realization(m, p.ostr.best.pi, p.ostr.best.tau);
  }
  {
    Scope s(tracer, "ostr.verify_realization");
    p.verify = verify_realization(m, p.real);
  }
  {
    Scope s(tracer, "encoding.encode_fsm");
    p.enc = encode_fsm(m, natural_encoding(m.num_states()));
  }
  probe_logic(tracer, p.enc, probe_factor);
  return p;
}

void add_ostr_counters(Record& rec, const OstrStats& st) {
  rec.add("ostr.nodes_investigated", static_cast<double>(st.nodes_investigated));
  rec.add("ostr.nodes_pruned", static_cast<double>(st.nodes_pruned));
  rec.add("partition.interned", static_cast<double>(st.cache.interned));
  for (const auto* op : {&st.cache.join, &st.cache.meet, &st.cache.refines,
                         &st.cache.m_op, &st.cache.M_op}) {
    rec.add("partition.memo_lookups", static_cast<double>(op->lookups));
    rec.add("partition.memo_hits", static_cast<double>(op->hits));
  }
}

void add_structure_counters(Record& rec, const ControllerStructure& cs) {
  rec.add("area_ge", cs.nl.area_ge());
  rec.add("netlist.nets", static_cast<double>(cs.nl.num_nets()));
  rec.add("netlist.faults",
          static_cast<double>(enumerate_stuck_faults(cs.nl).size()));
  if (cs.tech == Technology::kTwoLevel) {
    rec.add("logic.literals_2l", static_cast<double>(cs.logic.literals));
  } else {
    rec.add("literals_ml",
            cs.logic_ml ? static_cast<double>(cs.logic_ml->literals) : 0.0);
    rec.add("logic.factored_nodes", static_cast<double>(cs.factored_nodes));
  }
}

/// Primary outputs of `nl` over `cycles` cycles of seeded stimulus on all
/// of its inputs, plus the final flip-flop state.
std::vector<bool> simulate_words(const Netlist& nl, std::uint64_t seed,
                                 std::size_t cycles) {
  Rng rng(seed);
  Netlist::SimState state = nl.initial_state();
  std::vector<bool> in(nl.num_inputs()), values, out, trace;
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t k = 0; k < in.size(); ++k) in[k] = (rng.next() >> 17) & 1;
    nl.step(in, state, values, out);
    trace.insert(trace.end(), out.begin(), out.end());
  }
  trace.insert(trace.end(), state.dff.begin(), state.dff.end());
  return trace;
}

/// Independent functional-baseline verdict for one fault: replay the
/// fig1 structure in system mode with scalar Netlist::step under the
/// same LFSR stimulus the baseline documents (a generator of width
/// max(8, inputs) seeded with 0x5EED, bit k driving input k, test mode 0),
/// and report whether any primary output ever differs from the
/// fault-free run.
bool replay_detects(const ControllerStructure& cs, const Fault& f,
                    std::size_t cycles) {
  const Netlist& nl = cs.nl;
  std::vector<std::size_t> slot(cs.pi.size());
  for (std::size_t k = 0; k < cs.pi.size(); ++k)
    slot[k] = static_cast<std::size_t>(
        std::find(nl.inputs().begin(), nl.inputs().end(), cs.pi[k]) -
        nl.inputs().begin());
  Lfsr gen_good(std::max<std::size_t>(8, cs.pi.size()), 0x5EED);
  Netlist::SimState good = nl.initial_state(), bad = nl.initial_state();
  std::vector<bool> in(nl.num_inputs()), values, out_good, out_bad;
  for (std::size_t c = 0; c < cycles; ++c) {
    std::fill(in.begin(), in.end(), false);
    for (std::size_t k = 0; k < slot.size(); ++k) in[slot[k]] = gen_good.bit(k);
    nl.step(in, good, values, out_good);
    nl.step(in, bad, values, out_bad, f.net, f.stuck_value);
    if (out_good != out_bad) return true;
    gen_good.step();
  }
  return false;
}

/// One workload: a set-up that may run several times, whole timed
/// passes, and oracles over the first pass's outputs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up repetitions for the set_up median (1 where one set-up is
  /// itself several seconds).
  virtual int setup_repeats() const = 0;
  virtual void set_up(Tracer& tracer) = 0;
  /// One pass over the workload's items. `first` records counters and
  /// keeps outputs for check().
  virtual void pass(Tracer& tracer, Record& rec, bool first) = 0;
  virtual void check(Record& rec) = 0;
  /// {"fixed": {...}, "seeded": {...}} description of the inputs.
  virtual std::string inputs_json() const = 0;
};

// --- synth -----------------------------------------------------------------

class SynthWorkload : public Workload {
 public:
  static constexpr std::size_t kSeeded = 4;

  explicit SynthWorkload(std::uint64_t seed) : seed_(seed) {}

  int setup_repeats() const override { return 25; }

  void set_up(Tracer& tracer) override {
    Scope s(tracer, "fsm.load_inputs");
    machines_.clear();
    for (const std::string& n : benchmark_names())
      if (n != "s1") machines_.push_back(load_benchmark(n));
    corpus_count_ = machines_.size();
    // Held-out machines: one fixed shape (5 x 5 = 25 states, 4 inputs,
    // 3 outputs), seeded contents. A fixed shape keeps the work per machine
    // within about +-20% across seeds; the contents still change.
    for (std::size_t k = 0; k < kSeeded; ++k) {
      machines_.push_back(decomposable_mealy(seeded(seed_, 100 + k), 5, 5, 4, 3));
      machines_.back().validate();
    }
  }

  void pass(Tracer& tracer, Record& rec, bool first) override {
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      const MealyMachine& m = machines_[i];
      Scope item(tracer, "bench.item", static_cast<long>(i),
                 "\"machine\":" + json_string(m.name()));
      ++rec.attempted;
      try {
        const Prepared p = prepare(m, OstrOptions{}, tracer, true);
        std::vector<ControllerStructure> built;
        for (Technology tech : kTechs)
          for (int fig = 1; fig <= 4; ++fig) {
            Scope s(tracer, "bist.build_fig" + std::to_string(fig), -1,
                    std::string("\"tech\":\"") + technology_name(tech) + "\"");
            built.push_back(build_fig(fig, m, p.enc, p.real, tech));
          }
        if (!first) continue;
        add_ostr_counters(rec, p.ostr.stats);
        for (const ControllerStructure& cs : built) add_structure_counters(rec, cs);
        if (!p.verify.ok())
          rec.fail(m.name() + ": verify_realization failed: " + p.verify.detail);
        kept_.push_back(std::move(built));
      } catch (const std::exception& e) {
        rec.fail(m.name() + ": " + e.what());
        if (first) kept_.emplace_back();
      }
    }
  }

  /// Every multi-level netlist word-for-word equal to its two-level twin.
  void check(Record& rec) override {
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const auto& built = kept_[i];
      if (built.empty()) continue;
      for (int fig = 0; fig < 4; ++fig) {
        const Netlist& a = built[fig].nl;
        const Netlist& b = built[4 + fig].nl;
        const std::uint64_t s = seeded(seed_, 200 + i);
        if (a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() ||
            a.num_dffs() != b.num_dffs() ||
            simulate_words(a, s, 128) != simulate_words(b, s, 128)) {
          rec.fail(machines_[i].name() + " fig" + std::to_string(fig + 1) +
                   ": multi_level netlist differs from its two_level twin");
          break;
        }
      }
    }
  }

  std::string inputs_json() const override {
    std::string fixed, seeded_part;
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      const MealyMachine& m = machines_[i];
      const std::string entry = json_string(m.name()) + ":" +
                                json_string(std::to_string(machine_fingerprint(m)));
      std::string& dst = i < corpus_count_ ? fixed : seeded_part;
      dst += (dst.empty() ? "" : ",") + entry;
    }
    return "{\"fixed\":{" + fixed + "},\"seeded\":{" + seeded_part + "}}";
  }

 private:
  std::uint64_t seed_;
  std::vector<MealyMachine> machines_;  // corpus first, then seeded
  std::size_t corpus_count_ = 0;
  std::vector<std::vector<ControllerStructure>> kept_;  // first pass, per machine
};

// --- faultsim --------------------------------------------------------------

class FaultsimWorkload : public Workload {
 public:
  static constexpr std::size_t kBaselineSample = 8;  // fig1 faults per machine
  static constexpr std::size_t kOracleSample = 4;    // faults per structure
  static constexpr std::size_t kFunctionalCycles = 512;

  explicit FaultsimWorkload(std::uint64_t seed) : seed_(seed) {}

  int setup_repeats() const override { return 1; }

  void set_up(Tracer& tracer) override {
    machines_.clear();
    const std::vector<std::string> names = benchmark_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      Scope item(tracer, "bench.item", static_cast<long>(i),
                 "\"machine\":" + json_string(names[i]));
      Machine mc;
      mc.fsm = load_benchmark(names[i]);
      const Prepared p = prepare(mc.fsm, OstrOptions{}, tracer, false);
      mc.ostr_stats = p.ostr.stats;
      for (int fig = 1; fig <= 4; ++fig) {
        Scope s(tracer, "bist.build_fig" + std::to_string(fig), -1,
                "\"tech\":\"two_level\"");
        mc.figs.push_back(build_fig(fig, mc.fsm, p.enc, p.real, Technology::kTwoLevel));
      }
      Rng rng(seeded(seed_, 300 + i));
      for (const ControllerStructure& cs : mc.figs)
        mc.faults.push_back(enumerate_stuck_faults(cs.nl));
      mc.baseline_sample = sample(mc.faults[0], kBaselineSample, rng);
      for (int fig = 1; fig < 4; ++fig)
        mc.oracle_sample.push_back(sample(mc.faults[fig], kOracleSample, rng));
      machines_.push_back(std::move(mc));
    }
  }

  void pass(Tracer& tracer, Record& rec, bool first) override {
    CampaignOptions copt;  // the drivers' defaults: event engine, 64 lanes
    copt.num_threads = worker_threads();
    double campaign_s = 0.0, baseline_s = 0.0;
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      Machine& mc = machines_[i];
      Scope item(tracer, "bench.item", static_cast<long>(i),
                 "\"machine\":" + json_string(mc.fsm.name()));
      ++rec.attempted;
      try {
        for (int fig = 1; fig < 4; ++fig) {
          const SelfTestPlan plan = fig == 1 ? SelfTestPlan::conventional(512)
                                             : SelfTestPlan::two_session(256);
          const auto t0 = Clock::now();
          CampaignResult camp;
          {
            Scope s(tracer, "bist.run_fault_campaign", -1,
                    "\"fig\":" + std::to_string(fig + 1));
            camp = run_fault_campaign(mc.figs[fig], plan, copt, mc.faults[fig]);
          }
          campaign_s += since(t0);
          if (first) {
            rec.add("campaign_faults", static_cast<double>(camp.raw.total));
            rec.add("campaign_detected", static_cast<double>(camp.raw.detected));
            rec.add("bist.session_runs", static_cast<double>(camp.session_runs));
            rec.add("bist.cycles_simulated", static_cast<double>(camp.cycles_simulated));
            rec.add("bist.ops_evaluated", static_cast<double>(camp.ops_evaluated));
            rec.add("bist.ops_possible", static_cast<double>(camp.cycles_simulated) *
                                             static_cast<double>(camp.ops_per_cycle));
            rec.add("bist.collapsed_total", static_cast<double>(camp.collapsed_total));
            mc.campaigns.push_back(std::move(camp.raw));
          }
        }
        const auto t0 = Clock::now();
        CoverageResult base;
        {
          Scope s(tracer, "bist.measure_functional_coverage");
          base = measure_functional_coverage(mc.figs[0], kFunctionalCycles,
                                             mc.baseline_sample);
        }
        baseline_s += since(t0);
        if (first) {
          rec.add("baseline_faults", static_cast<double>(base.total));
          rec.add("baseline_fault_list", static_cast<double>(mc.faults[0].size()));
          mc.baseline = std::move(base);
        }
      } catch (const std::exception& e) {
        rec.fail(mc.fsm.name() + ": " + e.what());
      }
    }
    rec.series["campaign_s"].push_back(campaign_s);
    rec.series["baseline_s"].push_back(baseline_s);
    if (first) {
      for (const Machine& mc : machines_) {
        add_ostr_counters(rec, mc.ostr_stats);
        for (const ControllerStructure& cs : mc.figs) add_structure_counters(rec, cs);
      }
    }
  }

  void check(Record& rec) override {
    for (const Machine& mc : machines_) {
      bool ok = mc.campaigns.size() == 3;
      // Campaign verdicts against the serial measure_coverage oracle.
      for (std::size_t k = 0; ok && k < 3; ++k) {
        const SelfTestPlan plan = k == 0 ? SelfTestPlan::conventional(512)
                                         : SelfTestPlan::two_session(256);
        const CoverageResult serial =
            measure_coverage(mc.figs[k + 1], plan, mc.oracle_sample[k]);
        for (const Fault& f : mc.oracle_sample[k]) {
          const auto& missed = serial.undetected;
          const auto& und = mc.campaigns[k].undetected;
          const bool in_serial =
              std::find(missed.begin(), missed.end(), f) != missed.end();
          const bool in_campaign = std::find(und.begin(), und.end(), f) != und.end();
          if (in_serial != in_campaign) {
            rec.fail(mc.fsm.name() + " fig" + std::to_string(k + 2) +
                     ": campaign verdict differs from the serial oracle");
            ok = false;
            break;
          }
        }
      }
      // Sampled baseline verdicts against the scalar replay.
      for (const Fault& f : mc.baseline_sample) {
        if (!ok) break;
        const auto& und = mc.baseline.undetected;
        const bool detected = std::find(und.begin(), und.end(), f) == und.end();
        if (detected != replay_detects(mc.figs[0], f, kFunctionalCycles)) {
          rec.fail(mc.fsm.name() + " fig1: baseline verdict differs from the replay");
          ok = false;
        }
      }
    }
  }

  std::string inputs_json() const override {
    std::string fixed, seeded_part;
    for (const Machine& mc : machines_) {
      std::size_t faults = 0;
      for (const auto& fl : mc.faults) faults += fl.size();
      fixed += (fixed.empty() ? "" : ",") + json_string(mc.fsm.name()) + ":" +
               std::to_string(faults);
      std::string picks = fault_list_json(mc.baseline_sample);
      for (const auto& os : mc.oracle_sample) picks += "," + fault_list_json(os);
      seeded_part += (seeded_part.empty() ? "" : ",") +
                     json_string(mc.fsm.name()) + ":[" + picks + "]";
    }
    return "{\"fixed\":{" + fixed + "},\"seeded\":{" + seeded_part + "}}";
  }

 private:
  struct Machine {
    MealyMachine fsm;
    OstrStats ostr_stats;
    std::vector<ControllerStructure> figs;      // fig1..fig4, two-level
    std::vector<std::vector<Fault>> faults;     // full list per structure
    std::vector<Fault> baseline_sample;         // fig1 faults for the baseline
    std::vector<std::vector<Fault>> oracle_sample;  // per fig2..fig4
    std::vector<CoverageResult> campaigns;      // first pass, fig2..fig4
    CoverageResult baseline;                    // first pass
  };
  std::uint64_t seed_;
  std::vector<Machine> machines_;
};

// --- fleet -----------------------------------------------------------------

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) : seed_(seed) {}

  int setup_repeats() const override { return 3; }

  void set_up(Tracer& tracer) override {
    targets_.clear();
    const struct {
      const char* name;
      std::uint64_t instances;  // per MISR width
    } plan[] = {{"dk27", 75000}, {"tbk", 3072}};
    for (std::size_t i = 0; i < 2; ++i) {
      Scope item(tracer, "bench.item", static_cast<long>(i),
                 std::string("\"machine\":\"") + plan[i].name + "\"");
      const MealyMachine m = load_benchmark(plan[i].name);
      OstrOptions opt;
      opt.max_nodes = 2000000;  // fleet_sim's job path
      Target t;
      {
        Scope s(tracer, "ostr.solve_ostr");
        t.ostr = solve_ostr(m, opt);
      }
      Realization real;
      {
        Scope s(tracer, "ostr.build_realization");
        real = build_realization(m, t.ostr.best.pi, t.ostr.best.tau);
      }
      {
        Scope s(tracer, "bist.build_fig4", -1, "\"tech\":\"two_level\"");
        t.cs = build_fig4(m, real);
      }
      t.opt.instances = plan[i].instances;
      // Four workers on small shards: one worker left the pass exposed to
      // the drift of a single core (run-to-run spread 0.26 > the bound);
      // spread over four cores it averages out, as faultsim's campaigns do.
      t.opt.jobs = worker_threads();
      t.opt.shard_instances = 256;
      t.opt.base_seed = seeded(seed_, 400 + i);
      t.opt.defects.seed = seeded(seed_, 500 + i);
      targets_.push_back(std::move(t));
    }
  }

  void pass(Tracer& tracer, Record& rec, bool first) override {
    double instances = 0.0;
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      Target& t = targets_[i];
      Scope item(tracer, "bench.item", static_cast<long>(i));
      ++rec.attempted;
      try {
        FleetReport rep;
        {
          Scope s(tracer, "fleet.run_fleet");
          rep = run_fleet(t.cs, t.opt);
        }
        std::uint64_t runs = 0, cycles = 0, sim = rep.instances_simulated();
        for (const FleetWidthResult& w : rep.widths) {
          runs += w.stats.session_runs;
          cycles += w.stats.cycles;
        }
        for (const FleetCurvePoint& c : rep.curve) {
          sim += c.stats.instances;
          runs += c.stats.session_runs;
          cycles += c.stats.cycles;
        }
        instances += static_cast<double>(sim);
        if (first) {
          rec.add("fleet.packed_runs", static_cast<double>(runs));
          rec.add("bist.session_runs", static_cast<double>(runs));
          rec.add("bist.cycles_simulated", static_cast<double>(cycles));
          t.first = std::move(rep);
        }
      } catch (const std::exception& e) {
        rec.fail(std::string("fleet ") + std::to_string(i) + ": " + e.what());
      }
    }
    rec.series["instances"].push_back(instances);
    if (first) {
      for (const Target& t : targets_) {
        add_ostr_counters(rec, t.ostr.stats);
        add_structure_counters(rec, t.cs);
      }
    }
  }

  /// Aggregate counts identical at a second shard size.
  void check(Record& rec) override {
    for (const Target& t : targets_) {
      if (!t.first) continue;
      FleetOptions opt = t.opt;
      opt.shard_instances = 1000;
      const FleetReport other = run_fleet(t.cs, opt);
      bool same = other.widths.size() == t.first->widths.size() &&
                  other.curve.size() == t.first->curve.size();
      const auto eq = [](const FleetShardStats& a, const FleetShardStats& b) {
        return a.instances == b.instances && a.defective == b.defective &&
               a.po_stream_detected == b.po_stream_detected &&
               a.any_stream_detected == b.any_stream_detected &&
               a.misr_detected == b.misr_detected &&
               a.sig_detected == b.sig_detected && a.aliases == b.aliases &&
               a.escapes == b.escapes &&
               a.signature_histogram == b.signature_histogram;
      };
      for (std::size_t w = 0; same && w < other.widths.size(); ++w)
        same = eq(other.widths[w].stats, t.first->widths[w].stats);
      for (std::size_t c = 0; same && c < other.curve.size(); ++c)
        same = eq(other.curve[c].stats, t.first->curve[c].stats);
      if (!same)
        rec.fail("fleet aggregates differ between shard sizes " +
                 std::to_string(t.opt.shard_instances) + " and 1000");
    }
  }

  std::string inputs_json() const override {
    std::string fixed, seeded_part;
    for (const Target& t : targets_) {
      fixed += (fixed.empty() ? "" : ",") +
               json_string(std::to_string(t.cs.nl.num_nets())) + ":" +
               std::to_string(t.opt.instances);
      seeded_part += (seeded_part.empty() ? "" : ",") +
                     json_string(std::to_string(t.opt.base_seed)) + ":" +
                     json_string(std::to_string(t.opt.defects.seed));
    }
    return "{\"fixed\":{" + fixed + "},\"seeded\":{" + seeded_part + "}}";
  }

 private:
  struct Target {
    OstrResult ostr;
    ControllerStructure cs;
    FleetOptions opt;
    std::optional<FleetReport> first;  // first pass's report
  };
  std::uint64_t seed_;
  std::vector<Target> targets_;
};

// --- sweep -----------------------------------------------------------------

class SweepWorkload : public Workload {
 public:
  static constexpr double kDeadlineMs = 200.0;

  SweepWorkload() {
    opt_.techs = {Technology::kTwoLevel, Technology::kMultiLevel};
    opt_.jobs = worker_threads();
    opt_.job_budget_ms = kDeadlineMs;
  }

  int setup_repeats() const override { return 25; }

  /// The sweep's cache starts cold, so set-up is loading the corpus and
  /// expanding the job list.
  void set_up(Tracer& tracer) override {
    Scope s(tracer, "fsm.load_inputs");
    fingerprints_.clear();
    for (const std::string& n : benchmark_names())
      fingerprints_.push_back(machine_fingerprint(load_benchmark(n)));
    jobs_ = expand_sweep(opt_);
  }

  void pass(Tracer& tracer, Record& rec, bool first) override {
    JobCache cache;
    std::vector<double> job_s;
    std::size_t row_index = 0;
    const auto on_row = [&](const CampaignJobResult& row) {
      const double end = tracer.now();
      job_s.push_back(row.seconds);
      tracer.add("jobs.job", end - row.seconds, end, static_cast<long>(row_index++),
                 "\"machine\":" + json_string(row.spec.machine) + ",\"arch\":\"" +
                     arch_name(row.spec.arch) + "\",\"tech\":\"" +
                     technology_name(row.spec.tech) + "\"");
    };
    CorpusReport rep;
    {
      Scope s(tracer, "jobs.run_corpus_sweep");
      rep = run_corpus_sweep(opt_, cache, on_row);
    }
    rec.attempted += static_cast<long>(rep.jobs_total);
    if (!first) return;
    rec.series["job_s"] = job_s;
    rec.add("area_ge", rep.area_ge);
    rec.add("netlist.faults", static_cast<double>(rep.total_faults));
    rec.add("sweep.faults_simulated", static_cast<double>(rep.faults_simulated));
    rec.add("jobs.busy_s", rep.pool.busy_seconds);
    rec.add("jobs.pool_utilization", rep.pool_utilization());
    rec.add("jobs.tasks", static_cast<double>(rep.pool.tasks_executed));
    rec.add("jobs.steals", static_cast<double>(rep.pool.steals));
    rec.add("jobs.cache_hit_rate", rep.cache.hit_rate());
    rec.add("jobs.degraded", static_cast<double>(rep.jobs_degraded));
    rec.add("deadline_s", kDeadlineMs / 1e3);
    for (const CampaignJobResult& row : rep.rows) {
      const bool fig1 = row.spec.arch == ArchKind::kFig1;
      rec.add(fig1 ? "bist.baseline_s" : "bist.campaign_s", row.report.campaign_seconds);
      rec.add("logic.literals_2l", static_cast<double>(row.report.logic.literals));
      rec.add("logic.factored_nodes", static_cast<double>(row.report.factored_nodes));
      if (fig1) rec.add("baseline_faults", static_cast<double>(row.coverage.simulated));
    }
    report_ = std::move(rep);
  }

  /// No hard failures, and every truncated fault sweep is labeled.
  void check(Record& rec) override {
    const std::size_t hard = hard_failures(report_);
    for (std::size_t i = 0; i < hard; ++i) rec.fail("sweep: hard job failure");
    for (const CampaignJobResult& row : report_.rows) {
      const std::string who = row.spec.machine + "/" + arch_name(row.spec.arch) +
                              "/" + technology_name(row.spec.tech);
      if (row.skipped) rec.fail(who + ": skipped");
      if (row.failed() || row.skipped) continue;
      const bool truncated = row.coverage.simulated < row.coverage.total;
      bool labeled = false;
      for (const Degradation& d : row.report.degradations)
        labeled = labeled || d.degraded;
      if (truncated && !labeled) rec.fail(who + ": truncated fault sweep is not labeled");
    }
  }

  std::string inputs_json() const override {
    std::string fixed = "\"jobs\":" + std::to_string(jobs_.size()) + ",\"machines\":[";
    for (std::size_t i = 0; i < fingerprints_.size(); ++i)
      fixed += (i ? "," : "") + json_string(std::to_string(fingerprints_[i]));
    return "{\"fixed\":{" + fixed + "]},\"seeded\":{}}";
  }

 private:
  SweepOptions opt_;
  std::vector<std::uint64_t> fingerprints_;
  std::vector<CampaignJobSpec> jobs_;
  CorpusReport report_;  // first pass
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "synth") return std::make_unique<SynthWorkload>(seed);
  if (name == "faultsim") return std::make_unique<FaultsimWorkload>(seed);
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed);
  if (name == "sweep") return std::make_unique<SweepWorkload>();
  return nullptr;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string host_json() {
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"march_native\":" + (PERFBENCH_MARCH_NATIVE ? "true" : "false") + "}";
}

template <typename Map, typename Fn>
std::string json_object(const Map& m, Fn value) {
  std::string s = "{";
  for (const auto& [k, v] : m)
    s += (s.size() > 1 ? "," : "") + json_string(k) + ":" + value(v);
  return s + "}";
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + jnum(v[i]);
  return s + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload synth|faultsim|fleet|sweep "
               "--seed N [--seconds S] [--trace-out PATH] [--list-inputs]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool have_seed = false, list_inputs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--list-inputs") {
      list_inputs = true;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  if (!w || !have_seed || !(seconds > 0.0)) return usage();

  try {
    Tracer off(false);
    Record rec;
    if (list_inputs) {
      w->set_up(off);
      std::printf("%s\n", w->inputs_json().c_str());
      return 0;
    }
    const bool traced = !trace_out.empty();
    const int repeats = traced ? 1 : w->setup_repeats();
    for (int r = 0; r < repeats; ++r) {
      // Set-ups are spaced apart: each starts cold, as a one-time set-up
      // does, and the samples span the host's short-term drift instead of
      // one instant (back to back, sub-ms set-ups spread ~0.45 across runs).
      if (r > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const auto t0 = Clock::now();
      w->set_up(off);
      rec.setup_s.push_back(since(t0));
    }
    std::fprintf(stderr, "[%s] set-up %.3f s\n", workload.c_str(), rec.setup_s.back());

    const auto window = Clock::now();
    do {
      const auto t0 = Clock::now();
      w->pass(off, rec, rec.pass_s.empty());
      rec.pass_s.push_back(since(t0));
      std::fprintf(stderr, "[%s] pass %zu: %.3f s\n", workload.c_str(),
                   rec.pass_s.size(), rec.pass_s.back());
    } while (!traced && since(window) < seconds);
    const double rss = peak_rss_mb();

    // Oracles before the traced set-up, which rebuilds the inputs.
    const auto checked = Clock::now();
    try {
      w->check(rec);
    } catch (const std::exception& e) {
      rec.fail(std::string("oracle: ") + e.what());
    }
    std::fprintf(stderr, "[%s] oracles %.3f s, %ld/%ld failed\n", workload.c_str(),
                 since(checked), rec.failed, rec.attempted);

    double traced_pass_s = 0.0;
    if (traced) {
      Tracer tracer(true);
      {
        Scope s(tracer, "bench.setup", -1, "\"workload\":" + json_string(workload));
        w->set_up(tracer);
      }
      const auto t0 = Clock::now();
      {
        Scope s(tracer, "bench.pass", -1, "\"workload\":" + json_string(workload));
        w->pass(tracer, rec, false);
      }
      traced_pass_s = since(t0);
      if (!tracer.write_chrome(trace_out)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
      }
    }

    std::string failures = "[";
    for (std::size_t i = 0; i < rec.failures.size(); ++i)
      failures += (i ? "," : "") + json_string(rec.failures[i]);
    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"host\":%s,\"setup_s\":%s,"
        "\"pass_s\":%s,\"traced_pass_s\":%s,"
        "\"peak_rss_mb\":%s,\"attempted\":%ld,\"failed\":%ld,\"failures\":%s],"
        "\"series\":%s,\"counters\":%s}\n",
        json_string(workload).c_str(), static_cast<unsigned long long>(seed),
        host_json().c_str(), json_array(rec.setup_s).c_str(),
        json_array(rec.pass_s).c_str(), jnum(traced_pass_s).c_str(), jnum(rss).c_str(), rec.attempted, rec.failed,
        failures.c_str(),
        json_object(rec.series, json_array).c_str(),
        json_object(rec.counters, [](double v) { return jnum(v); }).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
