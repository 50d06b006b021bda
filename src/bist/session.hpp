#pragma once
// Two-session built-in self-test execution on a controller structure.
//
// During a session every register bank plays one role:
//   * kGenerate -- BILBO in LFSR mode: autonomous patterns, D ignored;
//   * kCompress -- BILBO in MISR mode: state <- feedback(state) XOR D;
//   * kSystem   -- plain register (used by the autonomous-transition
//                  variant, paper ref [14], where system transitions act
//                  as pattern generator).
// Primary inputs are driven by a dedicated input LFSR; primary outputs
// are compacted into an output MISR. A fault is detected when any final
// signature (register banks + output MISR) differs from the fault-free
// run. The paper's pipeline scheme is: session 1 = R1 generates / R2
// compresses, session 2 = the converse.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bist/architectures.hpp"
#include "bist/bilbo.hpp"
#include "bist/misr.hpp"
#include "util/budget.hpp"

namespace stc {

enum class RegRole { kGenerate, kCompress, kSystem, kHold };

struct SessionSpec {
  RegRole role_a = RegRole::kGenerate;  // reg_a of the structure
  RegRole role_b = RegRole::kCompress;  // reg_b (ignored if absent)
  std::size_t cycles = 256;
  std::uint64_t input_seed = 0x5EED;
  std::uint64_t gen_seed = 0x1;
};

struct SelfTestPlan {
  std::vector<SessionSpec> sessions;
  std::size_t output_misr_width = 16;

  /// The paper's plan for Figs. 3/4: two sessions with swapped roles.
  static SelfTestPlan two_session(std::size_t cycles_per_session = 256);

  /// Fig. 2 plan: T generates, R compresses (single session; T has no
  /// compressor counterpart).
  static SelfTestPlan conventional(std::size_t cycles = 512);

  /// Autonomous-transition variant (paper ref [14]): the generating
  /// register stays in *system* mode, so the machine's own transitions act
  /// as the pattern source while the other register compresses; two
  /// sessions with swapped roles, like two_session().
  static SelfTestPlan autonomous(std::size_t cycles_per_session = 256);

  /// Aliasing-hardened variant: each role assignment runs twice with
  /// independent seeds and coprime session lengths. Narrow signature
  /// registers (1-2 bits) alias systematically against short-period
  /// pattern sources; re-seeding breaks the phase alignment. Four sessions
  /// total.
  static SelfTestPlan thorough(std::size_t cycles_per_session = 256);
};

struct Signatures {
  std::vector<std::uint64_t> register_sigs;  // per session: compacting bank
  std::uint64_t output_sig = 0;

  bool operator==(const Signatures& o) const {
    return register_sigs == o.register_sigs && output_sig == o.output_sig;
  }
  bool operator!=(const Signatures& o) const { return !(*this == o); }
};

/// Run the plan on the structure with an optional injected fault.
Signatures run_self_test(const ControllerStructure& cs, const SelfTestPlan& plan,
                         std::optional<Fault> fault = std::nullopt);

struct CoverageResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  /// Faults actually simulated; == total unless a budget truncated the
  /// sweep. `undetected` lists only simulated-but-undetected faults, so
  /// total - simulated faults are in neither bucket.
  std::size_t simulated = 0;
  std::vector<Fault> undetected;

  /// Pessimistic coverage over the FULL fault list: unsimulated faults
  /// count as undetected. The safe number to report for a truncated run.
  double coverage() const {
    return total == 0 ? 1.0 : static_cast<double>(detected) / static_cast<double>(total);
  }
  /// Coverage over the simulated subset only (== coverage() when the run
  /// completed).
  double coverage_of_simulated() const {
    return simulated == 0
               ? 1.0
               : static_cast<double>(detected) / static_cast<double>(simulated);
  }
};

/// Serial fault simulation of the full single-stuck-at list (or a caller-
/// supplied subset) under the plan. One complete self-test run per fault:
/// exact but slow; kept as the differential-testing oracle for the
/// bit-parallel engine below.
CoverageResult measure_coverage(const ControllerStructure& cs, const SelfTestPlan& plan,
                                std::optional<std::vector<Fault>> faults = std::nullopt);

/// --- bit-parallel campaign engine (PPSFP) -------------------------------
///
/// Simulates 64·W − 1 faults per self-test run on W-word uint64_t lane
/// groups of a compiled levelized netlist (lane 0 = fault-free reference;
/// W ∈ {1, 4, 8} for 64/256/512 lanes, picked by fill_lane_words), so a
/// campaign costs ceil(F/(64·W−1)) runs instead of F+1. Each cycle is
/// evaluated event-driven
/// (CompiledNetlist::evaluate_event): net words stay resident and only the
/// fanout cones of changed words are re-evaluated. Detection is
/// signature-exact: a lane is detected iff any final compacting-register
/// or output-MISR signature differs from lane 0 — the same criterion as the
/// serial oracle, so the detected-fault sets are identical by construction
/// at every width and thread count.

/// Faults simulated per self-test run at a given lane width: one per lane
/// minus the reserved fault-free reference lane 0.
inline constexpr std::size_t faults_per_run(unsigned lane_words) {
  return 64u * lane_words - 1;
}

/// The lane-width rule: the widest W ∈ {8, 4, 1} whose run of per_run(W)
/// units one worker's `share` fills -- collapsed classes / parallelism for
/// campaigns, a shard's instance count for fleets.
inline constexpr unsigned fill_lane_words(std::size_t share,
                                          std::size_t (*per_run)(unsigned)) {
  return share >= per_run(8) ? 8 : share >= per_run(4) ? 4 : 1;
}

/// Shared-pool execution hook for the campaign's independent fault-batch
/// chunks. When CampaignOptions::executor is set, run_fault_campaign
/// decomposes the batch loop into up to max_parallelism() chunks and hands
/// them to run_chunks() instead of spawning its own thread pool -- this is
/// how the jobs/ work-stealing scheduler flattens every campaign's inner
/// parallelism into ONE process-wide pool (no nested pools, no
/// oversubscription). run_chunks(n, fn) must invoke fn(0..n-1) exactly
/// once each (concurrently or not) and return only when all have finished.
/// Chunks write disjoint result slots, so the detected-fault sets are
/// identical for every chunk count and any execution order/interleaving.
class CampaignChunkExecutor {
 public:
  virtual ~CampaignChunkExecutor() = default;
  virtual std::size_t max_parallelism() const = 0;
  virtual void run_chunks(std::size_t n,
                          const std::function<void(std::size_t)>& fn) = 0;
};

/// Warm per-structure campaign state: per lane width, the compiled lane
/// program (built on first use) plus a free-list of per-worker scratch
/// (lane buffers, banks, event residency). A campaign handed a warm state
/// via CampaignOptions::warm skips the compile and its workers lease
/// scratch instead of allocating it -- re-queued jobs on a cached
/// structure start hot. Bound to one (structure, MISR width) pair;
/// run_fault_campaign rejects a mismatched warm state with a typed Error.
/// Thread-safe: concurrent campaigns may share one warm state.
class CampaignWarmState;

/// Takes `output_misr_width` (not a SelfTestPlan) on purpose: the two
/// parameters here ARE the warm state's full identity, so any two plans
/// agreeing on output_misr_width may share one warm state -- the property
/// JobCache's warm key relies on.
std::shared_ptr<CampaignWarmState> make_campaign_warm_state(
    const ControllerStructure& cs, std::size_t output_misr_width);

/// How many times a leased scratch was *reused* (warm starts) -- the
/// hit-counter the cache tests and the orchestrator report assert on.
std::size_t campaign_warm_reuses(const CampaignWarmState& warm);
/// How many scratches the warm state has constructed in total.
std::size_t campaign_warm_builds(const CampaignWarmState& warm);

struct CampaignOptions {
  /// Fan fault batches across worker threads (mirrors
  /// OstrOptions::num_threads). Results are identical for any value.
  std::size_t num_threads = 1;
  /// Structural fault collapsing: simulate one representative per
  /// equivalence class (see collapse_faults) and expand the verdicts.
  bool collapse = true;
  /// Anytime governance. One work unit = one fault class, charged per
  /// worker thread and checked between runs; the allowance trims the last
  /// run, so one worker's work_limit(k) simulates min(k, classes). Every
  /// verdict of a completed batch is exact; an exhausted budget truncates
  /// the sweep and the result reports faults_simulated < raw.total with
  /// coverage() counting unsimulated faults as undetected (pessimistic).
  /// Under a deadline or cancellation WHICH batches completed may depend on
  /// thread timing; the work allowance is deterministic per worker (use
  /// num_threads = 1 for a deterministic truncated subset).
  Budget budget;
  /// Scheduler-owned campaigns: when set, the batch loop is sharded over
  /// this executor's shared pool and num_threads MUST stay 1 (validate()
  /// rejects anything else -- nesting a per-campaign pool under the
  /// scheduler oversubscribes every core). Results are identical to the
  /// internal-pool path by construction. Non-owning; must outlive the call.
  CampaignChunkExecutor* executor = nullptr;
  /// Warm compiled-program + scratch state for this exact structure (see
  /// make_campaign_warm_state). Non-owning; must outlive the call.
  CampaignWarmState* warm = nullptr;

  /// Check every field against `plan` and report ALL problems in one
  /// Error(kInvalidInput) -- num_threads, empty plan, MISR width,
  /// executor/num_threads nesting. Called by run_fault_campaign
  /// before any simulation work.
  void validate(const SelfTestPlan& plan) const;
};

struct CampaignResult {
  CoverageResult raw;                  // over the full input fault list
  std::size_t collapsed_total = 0;     // fault equivalence classes
  std::size_t collapsed_detected = 0;
  /// Equivalence classes whose batch actually ran (== collapsed_total
  /// unless the budget truncated the campaign).
  std::size_t collapsed_simulated = 0;
  /// Raw faults whose class was simulated; < raw.total flags a truncated
  /// campaign (mirrors raw.simulated).
  std::size_t faults_simulated = 0;
  /// Anytime label: what the budget cut, if anything.
  Degradation degradation;
  std::size_t session_runs = 0;        // full self-test executions performed

  // Activity accounting. ops_per_cycle is the compiled netlist's
  // combinational op count, i.e. the cost of one full evaluation.
  std::uint64_t cycles_simulated = 0;
  std::uint64_t ops_evaluated = 0;
  std::size_t ops_per_cycle = 0;

  double coverage() const { return raw.coverage(); }
  double collapsed_coverage() const {
    return collapsed_total == 0
               ? 1.0
               : static_cast<double>(collapsed_detected) /
                     static_cast<double>(collapsed_total);
  }
  /// Mean fraction of combinational ops re-evaluated to a fresh value per
  /// cycle (1.0 when nothing was simulated). An *event rate*: dense
  /// PLA products whose cheap resident-word check confirms the old value
  /// are not counted, so this tracks how quiescent the netlist is, not
  /// the engine's wall-clock cost -- compare campaign wall times for that.
  double mean_activity() const {
    return cycles_simulated == 0 || ops_per_cycle == 0
               ? 1.0
               : static_cast<double>(ops_evaluated) /
                     (static_cast<double>(cycles_simulated) *
                      static_cast<double>(ops_per_cycle));
  }
};

CampaignResult run_fault_campaign(const ControllerStructure& cs, const SelfTestPlan& plan,
                                  const CampaignOptions& options = {},
                                  std::optional<std::vector<Fault>> faults = std::nullopt);

/// --- fleet shard kernel (bist-side seam of fleet/fleet.hpp) -------------
///
/// Deployment simulation: lanes are packed as (reference, faulty) PAIRS --
/// lane 2j is chip instance j's fault-free twin, lane 2j+1 carries its
/// sampled defects -- so one self-test run simulates 32·W chip instances,
/// each with its own derived LFSR seeds. Detection is a pair-local
/// comparison, never against lane 0, so an instance's verdict depends only
/// on its own two lanes; the bit-parallel evaluator keeps lanes
/// independent, which makes the aggregate counts bit-identical for every
/// shard size, shard order and worker count by construction.

/// Chip instances simulated per self-test run at lane width W.
inline constexpr std::size_t fleet_instances_per_run(unsigned lane_words) {
  return 32u * lane_words;
}

/// Per-instance 64-bit seed key: SplitMix64 applied to the injective
/// stream base_seed + (instance+1)·odd. SplitMix64 is a bijection, so
/// distinct instances ALWAYS get distinct keys (no birthday collisions),
/// and per-(session, role) sub-seeds derived from the key stay distinct
/// across instances too. Width-w register states are then folded onto
/// [1, 2^w - 1] via nonzero_lfsr_state, so derivation can never trip the
/// zero-seed coercion in Lfsr::seed.
std::uint64_t fleet_instance_key(std::uint64_t base_seed, std::uint64_t instance);

/// Sample the defect set of one chip instance into `out` (append; the
/// kernel clears it between instances). MUST be a pure function of
/// `instance` -- shard boundaries and worker interleavings change the call
/// order, and the bit-identical-aggregates contract relies on each
/// instance sampling the same defects regardless.
using FleetDefectSampler =
    std::function<void(std::uint64_t instance, std::vector<Fault>& out)>;

/// Streaming per-shard aggregate: O(1) memory regardless of instance
/// count; no per-instance result is ever materialized.
struct FleetShardStats {
  std::uint64_t instances = 0;   // instances actually simulated
  std::uint64_t defective = 0;   // instances with >= 1 sampled fault
  /// Observability counters (all over simulated instances):
  std::uint64_t po_stream_detected = 0;   // PO stream differed some cycle
  std::uint64_t any_stream_detected = 0;  // PO stream or a compressing
                                          // bank's D stream differed
  std::uint64_t misr_detected = 0;  // final output-MISR signature differs
  std::uint64_t sig_detected = 0;   // any signature differs (banks + MISR)
  /// Alias event: the defect was visible on the primary outputs, but the
  /// output MISR compacted both streams to the same signature -- the
  /// empirical counterpart of the 2^-k aliasing bound for a k-bit MISR.
  std::uint64_t aliases = 0;  // po_stream_detected && !misr_detected
  /// Escape: the defect reached SOME compacted stream, yet every final
  /// signature matched -- the chip ships as good.
  std::uint64_t escapes = 0;  // any_stream_detected && !sig_detected
  std::uint64_t session_runs = 0;
  std::uint64_t cycles = 0;
  /// Final output-MISR signatures of defective instances, folded into 64
  /// buckets (signature mod 64) -- a cheap uniformity check on the
  /// compaction, streamed without materializing signatures.
  std::array<std::uint64_t, 64> signature_histogram{};

  void merge(const FleetShardStats& o);
};

/// Simulate chip instances [first, first + count) of a fleet in packed
/// runs as wide as `count` fills, leasing scratch from `warm` (bound to
/// (cs, plan.output_misr_width)). The budget is charged one unit per
/// instance, trimming the last run; exhaustion truncates the shard
/// (stats.instances < count) with every completed run's counts exact.
FleetShardStats run_fleet_shard(const ControllerStructure& cs,
                                const SelfTestPlan& plan,
                                CampaignWarmState& warm,
                                std::uint64_t base_seed, std::uint64_t first,
                                std::uint64_t count,
                                const FleetDefectSampler& sampler,
                                const Budget& budget);

/// Functional (non-BIST) baseline: drive `cycles` LFSR input patterns in
/// system mode (test_mode held at 0) on the campaign's lane engine; a fault
/// is detected at its first cycle whose primary outputs differ from the
/// fault-free lane. This is what an external random test of the Fig. 1
/// structure can observe. One work unit = one fault (work_limit(k) simulates
/// min(k, total)); a truncated sweep reports simulated < total.
CoverageResult measure_functional_coverage(const ControllerStructure& cs,
                                           std::size_t cycles,
                                           std::optional<std::vector<Fault>> faults =
                                               std::nullopt,
                                           std::uint64_t seed = 0x5EED,
                                           const Budget& budget = {},
                                           Degradation* degradation = nullptr);

}  // namespace stc
