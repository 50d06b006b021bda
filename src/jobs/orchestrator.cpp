#include "jobs/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <thread>

#include "benchdata/iwls93.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string pct(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << v * 100.0 << "%";
  return os.str();
}

std::string fixed1(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << v;
  return os.str();
}

/// The self-test plan a job's campaign runs (figs 2-4; fig1 has none).
SelfTestPlan plan_for(const CampaignJobSpec& spec) {
  return spec.arch == ArchKind::kFig2
             ? SelfTestPlan::conventional(2 * spec.bist_cycles)
             : SelfTestPlan::two_session(spec.bist_cycles);
}

}  // namespace

std::vector<CampaignJobSpec> expand_sweep(const SweepOptions& opt) {
  const std::vector<std::string> machines =
      opt.machines.empty() ? benchmark_names() : opt.machines;
  std::vector<CampaignJobSpec> specs;
  specs.reserve(machines.size() * opt.techs.size() * opt.archs.size() *
                std::max<std::size_t>(1, opt.repeat));
  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, opt.repeat); ++rep) {
    for (const std::string& name : machines) {
      for (Technology tech : opt.techs) {
        for (ArchKind arch : opt.archs) {
          CampaignJobSpec s;
          s.machine = name;
          s.arch = arch;
          s.tech = tech;
          s.bist_cycles = opt.bist_cycles;
          s.functional_cycles = opt.functional_cycles;
          s.with_fault_sim = opt.with_fault_sim;
          s.fleet_instances = opt.fleet_instances;
          s.fleet_widths = opt.fleet_widths;
          s.fleet_distribution = opt.fleet_distribution;
          s.fleet_defect_rate = opt.fleet_defect_rate;
          s.fleet_seed = opt.fleet_seed;
          specs.push_back(std::move(s));
        }
      }
    }
  }
  return specs;
}

CampaignJobResult run_campaign_job(const CampaignJobSpec& spec, JobCache& cache,
                                   const Budget& budget,
                                   CampaignChunkExecutor* executor,
                                   std::uint64_t ostr_max_nodes) {
  CampaignJobResult r;
  r.spec = spec;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Transient-failure injection site for the retry/crash-recovery
    // suites: armed kFail raises Error(kIo) (retried), armed kDelay wedges
    // the job without polling any token (what the watchdog detects).
    fault_point("orchestrator.job.start");
    auto m = cache.machine(spec.machine,
                           [](const std::string& n) { return load_benchmark(n); },
                           &r.machine_cached);

    OstrOptions ostr_opt;
    ostr_opt.max_nodes = ostr_max_nodes;
    ostr_opt.budget = budget;
    auto s = cache.structure(m, spec.arch, spec.tech, ostr_opt, budget,
                             &r.structure_cached);

    const bool fleet_mode = spec.fleet_instances > 0;
    if (fleet_mode && spec.arch == ArchKind::kFig1)
      throw Error(ErrorCode::kInvalidInput,
                  "fleet jobs need a BIST architecture",
                  "machine=" + spec.machine + "; arch=fig1 runs no self-test");

    FlowOptions fopt;
    fopt.technology = spec.tech;
    // Fleet jobs keep the synthesis metrics but replace the per-fault
    // campaign with the deployment simulation below.
    fopt.with_fault_sim = spec.with_fault_sim && !fleet_mode;
    fopt.bist_cycles = spec.bist_cycles;
    fopt.functional_cycles = spec.functional_cycles;
    fopt.budget = budget;
    // Scheduler-owned: inner parallelism goes through the shared pool (or
    // stays serial when there is none) -- never a nested per-campaign pool.
    fopt.campaign.num_threads = 1;
    fopt.campaign.executor = executor;

    // Warm compiled-netlist + scratch for the campaign-driven structures
    // (fig1 runs no sessions).
    std::shared_ptr<CampaignWarmState> warm;
    if (fopt.with_fault_sim && spec.arch != ArchKind::kFig1) {
      warm = cache.warm(s, plan_for(spec).output_misr_width, &r.warm_cached);
      fopt.campaign.warm = warm.get();
    }

    r.report = measure_structure(s->cs, fopt, &r.coverage);

    if (fleet_mode) {
      FleetOptions flo;
      flo.instances = spec.fleet_instances;
      flo.misr_widths = spec.fleet_widths;
      flo.plan = plan_for(spec);
      flo.base_seed = spec.fleet_seed;
      flo.defects.model = spec.fleet_distribution;
      flo.defects.defect_rate = spec.fleet_defect_rate;
      flo.budget = budget;
      flo.executor = executor;
      flo.jobs = 1;  // scheduler-owned or serial; never a nested pool
      // Warm states come from the cache per MISR width, so re-queued fleet
      // jobs on a cached structure skip every compile (run_fleet calls this
      // serially from the width loop).
      flo.warm = [&cache, &s, &r](std::size_t width) {
        bool hit = false;
        auto w = cache.warm(s, width, &hit);
        r.warm_cached = r.warm_cached || hit;
        return w;
      };
      auto fleet = std::make_shared<FleetReport>(run_fleet(s->cs, flo));
      if (fleet->degradation.degraded)
        r.report.degradations.push_back(fleet->degradation);
      r.fleet = std::move(fleet);
    }
  } catch (const Error& e) {
    r.error = e.what();
    r.error_code = e.code();
    r.error_context = e.context();
  } catch (const std::invalid_argument& e) {
    // The library-wide precondition idiom (bad machine name, ...): the
    // request can never succeed as given, so it must not be retried.
    r.error = e.what();
    r.error_code = ErrorCode::kInvalidInput;
    r.error_context = "machine=" + spec.machine;
  } catch (const std::exception& e) {
    r.error = e.what();
    r.error_code = ErrorCode::kInternal;
  }
  r.seconds = seconds_since(t0);
  return r;
}

double RetryPolicy::backoff_ms(std::size_t retry, std::uint64_t seed) const {
  if (retry == 0) return 0.0;
  double ms = base_backoff_ms;
  for (std::size_t k = 1; k < retry && ms < max_backoff_ms; ++k) ms *= 2.0;
  ms = std::min(ms, max_backoff_ms);
  // Deterministic jitter: the same (job, retry) always waits the same
  // time, so crash-recovery replays are reproducible, while distinct jobs
  // de-synchronize instead of thundering back in lockstep.
  Rng rng(hash_combine(seed, retry));
  const double factor = 1.0 + jitter_frac * (2.0 * rng.unit() - 1.0);
  return std::max(0.0, ms * factor);
}

JobAttemptOutcome run_campaign_job_with_retry(
    const CampaignJobSpec& spec, JobCache& cache, const RetryPolicy& policy,
    double attempt_budget_ms, std::shared_ptr<const CancelToken> cancel,
    CampaignChunkExecutor* executor, std::uint64_t ostr_max_nodes) {
  const std::uint64_t seed =
      fnv1a_str(hash_combine(kFnvOffset, static_cast<std::uint64_t>(spec.arch)),
                spec.machine);
  const std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);

  JobAttemptOutcome out;
  for (std::size_t attempt = 1;; ++attempt) {
    // Fresh budget per attempt: the deadline measures THIS attempt's work,
    // not time burned by failed predecessors or backoff sleeps.
    Budget budget;
    if (attempt_budget_ms >= 0.0) budget.with_deadline_ms(attempt_budget_ms);
    if (cancel) budget.with_cancel(cancel);

    out.result = run_campaign_job(spec, cache, budget, executor, ostr_max_nodes);
    out.attempts = attempt;
    if (!out.result.failed()) return out;
    if (!policy.is_transient(out.result.error_code)) return out;  // permanent
    if (attempt >= max_attempts) return out;  // retries exhausted
    if (cancel && cancel->requested()) {
      out.retry_pending = true;  // shutdown: the job still deserves a retry
      return out;
    }

    // Exponential backoff with deterministic jitter, polled in slices so a
    // shutdown request never waits out a long sleep.
    const double wait_ms = policy.backoff_ms(attempt, seed);
    out.backoff_ms_total += wait_ms;
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::duration<double, std::milli>(wait_ms);
    while (std::chrono::steady_clock::now() < wake) {
      if (cancel && cancel->requested()) {
        out.retry_pending = true;
        return out;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

std::size_t hard_failures(const CorpusReport& rep) {
  std::size_t n = 0;
  for (const CampaignJobResult& row : rep.rows)
    if (row.failed() && row.error_code != ErrorCode::kBudgetExhausted) ++n;
  return n;
}

CorpusReport run_corpus_sweep(
    const SweepOptions& opt, JobCache& cache,
    const std::function<void(const CampaignJobResult&)>& on_row) {
  const std::vector<CampaignJobSpec> specs = expand_sweep(opt);
  CorpusReport rep;
  rep.jobs_total = specs.size();
  rep.rows.resize(specs.size());

  const auto t0 = std::chrono::steady_clock::now();
  {
    TaskPool pool(std::max<std::size_t>(1, opt.jobs));
    PoolChunkExecutor exec(pool);

    // Ordered retirement: results land in their submission-order slot; the
    // finishing worker advances the retire cursor and emits every newly
    // contiguous row, so on_row sees submission order at any job count.
    std::mutex retire_mu;
    std::size_t retired = 0;
    std::vector<char> done(specs.size(), 0);

    TaskPool::Group group(pool);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      group.run([&, i] {
        CampaignJobResult r;
        if (opt.cancel && opt.cancel->requested()) {
          // Drain, don't run: queued jobs become labeled 'skipped' rows.
          r.spec = specs[i];
          r.skipped = true;
        } else {
          Budget budget;
          if (opt.job_budget_ms >= 0.0) budget.with_deadline_ms(opt.job_budget_ms);
          if (opt.cancel) budget.with_cancel(opt.cancel);
          r = run_campaign_job(specs[i], cache, budget, &exec,
                               opt.ostr_max_nodes);
        }
        std::lock_guard<std::mutex> lock(retire_mu);
        rep.rows[i] = std::move(r);
        done[i] = 1;
        while (retired < done.size() && done[retired]) {
          if (on_row) on_row(rep.rows[retired]);
          ++retired;
        }
      });
    }
    group.wait();
    rep.pool = pool.stats();
  }
  rep.wall_seconds = seconds_since(t0);
  rep.cache = cache.stats();
  rep.cancelled = opt.cancel && opt.cancel->requested();

  for (const CampaignJobResult& row : rep.rows) {
    if (row.skipped) {
      ++rep.jobs_skipped;
      continue;
    }
    if (!row.error.empty()) {
      ++rep.jobs_failed;
      continue;
    }
    ++rep.jobs_completed;
    if (!row.report.degradations.empty()) ++rep.jobs_degraded;
    rep.total_faults += row.coverage.total;
    rep.faults_simulated += row.coverage.simulated;
    rep.faults_detected += row.coverage.detected;
    rep.area_ge += row.report.area_ge;
    rep.literals_two_level += row.report.logic.literals;
    if (row.report.logic_ml) rep.literals_multi_level += row.report.logic_ml->literals;
    rep.campaign_seconds += row.report.campaign_seconds;
  }
  return rep;
}

std::string corpus_row_header() {
  std::ostringstream os;
  os << std::left << std::setw(13) << "machine" << std::setw(6) << "arch"
     << std::setw(12) << "tech" << std::right << std::setw(4) << "ff"
     << std::setw(9) << "area" << std::setw(6) << "depth" << std::setw(9)
     << "faults" << std::setw(9) << "coverage" << std::setw(9) << "time"
     << "  cache";
  return os.str();
}

std::string render_corpus_row(const CampaignJobResult& row) {
  std::ostringstream os;
  os << std::left << std::setw(13) << row.spec.machine << std::setw(6)
     << arch_name(row.spec.arch);
  if (row.skipped) {
    os << "skipped (cancelled before start)";
    return os.str();
  }
  if (!row.error.empty()) {
    os << "FAILED: " << row.error;
    return os.str();
  }
  os << std::setw(12) << row.report.technology << std::right << std::setw(4)
     << row.report.flipflops << std::setw(9) << fixed1(row.report.area_ge)
     << std::setw(6) << row.report.depth;
  if (row.report.coverage) {
    os << std::setw(9) << row.report.total_faults << std::setw(9)
       << pct(*row.report.coverage);
  } else {
    os << std::setw(9) << "-" << std::setw(9) << "-";
  }
  os << std::setw(9) << (fixed1(row.seconds * 1000.0) + "ms");
  // Which cache levels were hot for this job: Machine / Structure / Warm.
  os << "  " << (row.machine_cached ? 'M' : '.')
     << (row.structure_cached ? 'S' : '.') << (row.warm_cached ? 'W' : '.');
  if (row.fleet) {
    os << "  fleet " << row.fleet->instances_simulated() << " inst";
    if (!row.fleet->widths.empty()) {
      const FleetWidthResult& w0 = row.fleet->widths.front();
      os << ", alias@w" << w0.misr_width << " " << std::scientific
         << std::setprecision(2) << w0.alias_probability();
      os.unsetf(std::ios::floatfield);
    }
  }
  if (!row.report.degradations.empty()) os << "  [degraded]";
  return os.str();
}

std::string render_corpus_summary(const CorpusReport& rep) {
  std::ostringstream os;
  os << "jobs: " << rep.jobs_total << " total, " << rep.jobs_completed
     << " completed, " << rep.jobs_skipped << " skipped, " << rep.jobs_failed
     << " failed, " << rep.jobs_degraded << " degraded\n";
  if (rep.cancelled)
    os << "cancelled: yes (partial aggregates below cover completed jobs)\n";
  os << "wall: " << fixed1(rep.wall_seconds) << "s, pool: " << rep.pool.workers
     << " workers, " << rep.pool.tasks_executed << " tasks ("
     << rep.pool.steals << " steals), utilization "
     << pct(rep.pool_utilization()) << "\n";
  os << "cache hits: " << rep.cache.hits() << " (hit rate "
     << pct(rep.cache.hit_rate()) << "), misses " << rep.cache.misses()
     << ", warm scratch reuses " << rep.cache.scratch_reuses << "\n";
  os << "corpus: " << rep.total_faults << " faults, " << rep.faults_simulated
     << " simulated, " << rep.faults_detected << " detected, coverage "
     << pct(rep.coverage()) << "\n";
  os << "corpus area: " << fixed1(rep.area_ge) << " GE, two-level literals "
     << rep.literals_two_level << ", multi-level literals "
     << rep.literals_multi_level << ", campaign time "
     << fixed1(rep.campaign_seconds) << "s";
  return os.str();
}

}  // namespace stc
