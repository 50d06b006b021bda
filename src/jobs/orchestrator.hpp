#pragma once
// Corpus-scale campaign orchestration: (machine x architecture x
// technology x test plan) as a first-class CampaignJob,
// executed on the work-stealing TaskPool with the JobCache supplying every
// reusable artifact, aggregated into a single streamed CorpusReport.
//
// Determinism contract: with no wall-clock deadline, every per-job
// artifact (StructureReport fields, detected/undetected fault sets) is
// bit-identical to running the same (machine, arch, tech) through the
// serial drivers, at EVERY job count -- builds are deterministic
// functions, cached artifacts are built exactly once, and campaign chunks
// write disjoint result slots. Rows retire in submission order (ordered
// retirement), so the streamed output is byte-stable too.

#include <functional>

#include "fleet/fleet.hpp"
#include "jobs/cache.hpp"
#include "jobs/scheduler.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"

namespace stc {

/// One orchestrated unit of work.
struct CampaignJobSpec {
  std::string machine;
  ArchKind arch = ArchKind::kFig1;
  Technology tech = Technology::kTwoLevel;
  std::size_t bist_cycles = 256;       // per session (figs 2-4 plans)
  std::size_t functional_cycles = 512; // fig1 baseline
  bool with_fault_sim = true;

  /// Fleet mode: when > 0 the job is a deployment simulation -- synthesize
  /// the structure as usual (area/depth metrics still reported, fault sweep
  /// skipped), then run `fleet_instances` chip instances per MISR width
  /// through run_fleet, with defects drawn
  /// from `fleet_distribution`. 0 = ordinary campaign job.
  std::uint64_t fleet_instances = 0;
  std::vector<std::size_t> fleet_widths = {8, 16, 24, 40};
  DefectModel fleet_distribution = DefectModel::kSingleUniform;
  double fleet_defect_rate = 1.0;
  /// Base seed of the per-instance LFSR-seed derivation (not the defect
  /// sampler seed, which DefectSpec owns).
  std::uint64_t fleet_seed = 0xF1EE7;
};

struct CampaignJobResult {
  CampaignJobSpec spec;
  StructureReport report;
  /// Full per-fault verdicts (undetected list) -- what the determinism
  /// tests compare across job counts and against the serial driver.
  CoverageResult coverage;
  /// Set when the job never ran (cancelled while queued); the row is
  /// labeled, not silently dropped.
  bool skipped = false;
  /// Non-empty when the job failed with an error (typed message).
  std::string error;
  /// Machine-readable class of the failure (meaningful only when `error`
  /// is non-empty): the retry policy branches on this, never on the
  /// message text. Unexpected exceptions are classified kInternal.
  ErrorCode error_code = ErrorCode::kInternal;
  /// Machine-readable context of a typed failure (Error::context()).
  std::string error_context;

  /// Fleet-mode outcome (null for ordinary campaign jobs). Shared so the
  /// result stays cheap to copy through the retirement queue.
  std::shared_ptr<const FleetReport> fleet;

  bool failed() const { return !skipped && !error.empty(); }
  double seconds = 0.0;  // job wall time (build amortized into first job)
  // Which cache levels served this job hot:
  bool machine_cached = false, structure_cached = false, warm_cached = false;
};

/// Whole-sweep configuration (the drivers' --all mode).
struct SweepOptions {
  /// Machines to sweep; empty = the full benchmark catalog.
  std::vector<std::string> machines;
  std::vector<ArchKind> archs = {ArchKind::kFig1, ArchKind::kFig2,
                                 ArchKind::kFig3, ArchKind::kFig4};
  std::vector<Technology> techs = {Technology::kTwoLevel};
  std::size_t bist_cycles = 256;
  std::size_t functional_cycles = 512;
  bool with_fault_sim = true;
  /// Fleet mode for every expanded job (see CampaignJobSpec): > 0 turns the
  /// sweep into a corpus-wide deployment simulation.
  std::uint64_t fleet_instances = 0;
  std::vector<std::size_t> fleet_widths = {8, 16, 24, 40};
  DefectModel fleet_distribution = DefectModel::kSingleUniform;
  double fleet_defect_rate = 1.0;
  std::uint64_t fleet_seed = 0xF1EE7;
  /// Worker threads of the shared pool (the --jobs flag). Results are
  /// identical for any value; only wall time differs.
  std::size_t jobs = 1;
  /// Enqueue the whole job list this many times: pass 2+ exercises the
  /// warm path end to end (every repeat after the first must be all cache
  /// hits -- no recompiles).
  std::size_t repeat = 1;
  /// Per-job wall-clock budget in ms (< 0 = none). The deadline starts
  /// when the job starts, so queueing delay is never charged to a job.
  double job_budget_ms = -1.0;
  std::uint64_t ostr_max_nodes = 2000000;
  /// Cooperative cancellation (Ctrl-C): queued jobs drain as 'skipped'
  /// labeled rows, running jobs truncate via their budget, and the report
  /// aggregates whatever completed.
  std::shared_ptr<const CancelToken> cancel;
};

/// Aggregated sweep outcome. Totals cover completed fault-sim rows only;
/// skipped/failed rows are counted but never silently folded in.
struct CorpusReport {
  std::vector<CampaignJobResult> rows;  // submission order
  std::size_t jobs_total = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_skipped = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_degraded = 0;  // completed but budget-truncated somewhere
  bool cancelled = false;
  double wall_seconds = 0.0;
  TaskPool::Stats pool;
  JobCacheStats cache;
  // Corpus-level totals over completed rows:
  std::size_t total_faults = 0;
  std::size_t faults_simulated = 0;
  std::size_t faults_detected = 0;
  double area_ge = 0.0;
  std::size_t literals_two_level = 0;
  std::size_t literals_multi_level = 0;  // rows carrying an ML cost point
  double campaign_seconds = 0.0;  // summed per-row measurement time

  double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(faults_detected) / total_faults;
  }
  /// Busy worker-seconds over available worker-seconds.
  double pool_utilization() const {
    return wall_seconds <= 0.0 || pool.workers == 0
               ? 0.0
               : pool.busy_seconds / (wall_seconds * pool.workers);
  }
};

/// Expand `opt` into the ordered job list (machine-major, then tech, then
/// arch, repeated `repeat` times) -- exposed so tests and benches can
/// reason about row order.
std::vector<CampaignJobSpec> expand_sweep(const SweepOptions& opt);

/// Run the sweep on a fresh work-stealing pool of opt.jobs workers,
/// reusing (and filling) `cache`. `on_row` -- when given -- is invoked in
/// submission order as jobs retire, from whichever thread retires them
/// (calls are serialized).
CorpusReport run_corpus_sweep(const SweepOptions& opt, JobCache& cache,
                              const std::function<void(const CampaignJobResult&)>&
                                  on_row = nullptr);

/// Run ONE job outside any pool/sweep (the daemon-mode building block and
/// the test seam): same artifact path as a sweep job, inner batches run on
/// `executor` when given.
CampaignJobResult run_campaign_job(const CampaignJobSpec& spec, JobCache& cache,
                                   const Budget& budget = {},
                                   CampaignChunkExecutor* executor = nullptr,
                                   std::uint64_t ostr_max_nodes = 2000000);

// --- retry policy (the daemon's failure taxonomy) ---------------------------

/// How job failures are retried. TRANSIENT failures -- kIo, which is also
/// the class every injected fault raises -- are retried up to max_attempts
/// with exponential backoff and deterministic jitter (seeded from the job,
/// via util/rng: two daemons replaying the same spool back off
/// identically). PERMANENT failures (kInvalidInput, kUnsupported,
/// kBudgetExhausted, kInternal) fail immediately with the error context
/// preserved: re-running a malformed or impossible job only burns cycles.
struct RetryPolicy {
  std::size_t max_attempts = 3;    // total attempts, first run included
  double base_backoff_ms = 100.0;  // attempt k waits base * 2^(k-1), ...
  double max_backoff_ms = 5000.0;  // ...clamped here, before jitter
  double jitter_frac = 0.25;       // +-25% deterministic jitter

  bool is_transient(ErrorCode code) const { return code == ErrorCode::kIo; }

  /// Backoff before retry number `retry` (1-based: the wait after the
  /// first failed attempt). Deterministic in (seed, retry).
  double backoff_ms(std::size_t retry, std::uint64_t seed) const;
};

struct JobAttemptOutcome {
  CampaignJobResult result;  // the final attempt's result
  std::size_t attempts = 1;  // attempts actually run
  double backoff_ms_total = 0.0;
  /// True when a transient failure still had attempts left but the cancel
  /// token stopped the retry loop (shutdown mid-backoff): the caller
  /// should requeue the job, not fail it permanently.
  bool retry_pending = false;
};

/// run_campaign_job with the retry policy applied. Each attempt gets a
/// fresh Budget (deadline `attempt_budget_ms` from its OWN start when
/// >= 0, plus `cancel`); backoff sleeps poll `cancel` so shutdown never
/// waits on a sleeping retry.
JobAttemptOutcome run_campaign_job_with_retry(
    const CampaignJobSpec& spec, JobCache& cache, const RetryPolicy& policy,
    double attempt_budget_ms = -1.0,
    std::shared_ptr<const CancelToken> cancel = nullptr,
    CampaignChunkExecutor* executor = nullptr,
    std::uint64_t ostr_max_nodes = 2000000);

/// Failed rows that should fail a CI gate: everything except
/// kBudgetExhausted (budget-labeled rows are valid anytime results -- the
/// drivers' --all exit code is nonzero iff this is nonzero).
std::size_t hard_failures(const CorpusReport& rep);

// --- text rendering (the drivers' streamed table) ---------------------------

std::string corpus_row_header();
std::string render_corpus_row(const CampaignJobResult& row);
/// Multi-line summary: job/cache/pool counters plus corpus totals.
std::string render_corpus_summary(const CorpusReport& rep);

}  // namespace stc
