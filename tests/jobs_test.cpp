// Tests for the corpus-scale orchestration layer (src/jobs/): the
// work-stealing TaskPool, the keyed JobCache, and run_corpus_sweep.
//
// The properties that matter:
//   * scheduler: every submitted task runs exactly once, nested groups
//     (a job forking campaign chunks) complete without deadlock;
//   * cache: a warm re-run is bit-identical to the cold run -- same
//     StructureReport numbers, same undetected fault set -- and every
//     cache level reports the hit;
//   * sweep: results are bit-identical at every --jobs value AND identical
//     to the direct serial measure_structure path;
//   * cancellation: a mid-sweep cancel drains queued jobs as labeled
//     skipped rows and the partial aggregates stay consistent;
//   * validate(): scheduler-owned campaigns reject nested thread pools.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "benchdata/iwls93.hpp"
#include "encoding/encoding.hpp"
#include "jobs/orchestrator.hpp"
#include "util/error.hpp"

namespace stc {
namespace {

// Machines cheap enough to fault-simulate in a unit test (the corpus minus
// the two big searches, s1 and tbk, whose OSTR/campaigns take minutes).
std::vector<std::string> cheap_machines() {
  std::vector<std::string> out;
  for (const std::string& n : benchmark_names())
    if (n != "s1" && n != "tbk") out.push_back(n);
  return out;
}

// --- TaskPool ---------------------------------------------------------------

TEST(TaskPool, EveryTaskRunsExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> ran(500);
  for (auto& r : ran) r.store(0);
  {
    TaskPool::Group group(pool);
    for (std::size_t i = 0; i < ran.size(); ++i)
      group.run([&ran, i] { ran[i].fetch_add(1); });
    group.wait();
  }
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  const auto st = pool.stats();
  EXPECT_EQ(st.workers, 4u);
  EXPECT_EQ(st.tasks_executed, ran.size());
}

TEST(TaskPool, NestedGroupsCompleteWithoutDeadlock) {
  TaskPool pool(3);
  std::atomic<int> leaf_runs{0};
  TaskPool::Group outer(pool);
  for (int j = 0; j < 16; ++j) {
    outer.run([&] {
      // A job forks its chunks and joins by helping -- this must not
      // deadlock even with every worker inside a nested wait().
      TaskPool::Group inner(pool);
      for (int c = 0; c < 8; ++c) inner.run([&] { leaf_runs.fetch_add(1); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaf_runs.load(), 16 * 8);
}

TEST(TaskPool, PoolChunkExecutorRunsEachChunkOnce) {
  TaskPool pool(2);
  PoolChunkExecutor exec(pool);
  EXPECT_EQ(exec.max_parallelism(), 2u);
  std::vector<std::atomic<int>> ran(17);
  for (auto& r : ran) r.store(0);
  exec.run_chunks(ran.size(),
                  [&](std::size_t c) { ran[c].fetch_add(1); });
  for (std::size_t c = 0; c < ran.size(); ++c) EXPECT_EQ(ran[c].load(), 1) << c;
}

// --- CampaignOptions::validate (scheduler-owned campaigns) ------------------

class DummyExecutor : public CampaignChunkExecutor {
 public:
  std::size_t max_parallelism() const override { return 4; }
  void run_chunks(std::size_t n,
                  const std::function<void(std::size_t)>& fn) override {
    for (std::size_t c = 0; c < n; ++c) fn(c);
  }
};

TEST(CampaignValidate, RejectsNestedPoolUnderScheduler) {
  DummyExecutor exec;
  CampaignOptions opt;
  opt.executor = &exec;
  opt.num_threads = 4;  // nested per-campaign pool: forbidden
  try {
    opt.validate(SelfTestPlan::two_session(16));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    // The message must name the orchestrator flag that sizes the pool.
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("num_threads"), std::string::npos)
        << e.what();
  }
  opt.num_threads = 1;  // scheduler-owned jobs pass num_threads = 1: fine
  EXPECT_NO_THROW(opt.validate(SelfTestPlan::two_session(16)));
}

TEST(CampaignValidate, RejectsMismatchedWarmState) {
  const MealyMachine m = load_benchmark("dk27");
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const ControllerStructure fig3 = build_fig3(enc);
  const ControllerStructure fig2 = build_fig2(enc);
  const SelfTestPlan plan = SelfTestPlan::two_session(16);
  auto warm = make_campaign_warm_state(fig3, plan.output_misr_width);
  CampaignOptions opt;
  opt.warm = warm.get();
  try {
    run_fault_campaign(fig2, plan, opt);  // warm built for fig3, not fig2
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("warm"), std::string::npos);
  }
  // Matching structure: accepted, and results equal the warm-free path.
  const CampaignResult cold = run_fault_campaign(fig3, plan);
  const CampaignResult hot = run_fault_campaign(fig3, plan, opt);
  EXPECT_EQ(cold.raw.total, hot.raw.total);
  EXPECT_EQ(cold.raw.detected, hot.raw.detected);
  EXPECT_EQ(cold.raw.undetected, hot.raw.undetected);
  EXPECT_GE(campaign_warm_reuses(*warm) + campaign_warm_builds(*warm), 1u);
}

// --- JobCache: cold vs warm determinism -------------------------------------

void expect_identical(const CampaignJobResult& a, const CampaignJobResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.error, b.error);
  EXPECT_EQ(a.report.kind, b.report.kind);
  EXPECT_EQ(a.report.technology, b.report.technology);
  EXPECT_EQ(a.report.flipflops, b.report.flipflops);
  EXPECT_EQ(a.report.area_ge, b.report.area_ge);  // exact: same netlist
  EXPECT_EQ(a.report.depth, b.report.depth);
  EXPECT_EQ(a.report.logic.literals, b.report.logic.literals);
  EXPECT_EQ(a.report.logic.cubes, b.report.logic.cubes);
  EXPECT_EQ(a.report.logic_ml.has_value(), b.report.logic_ml.has_value());
  if (a.report.logic_ml)
    EXPECT_EQ(a.report.logic_ml->literals, b.report.logic_ml->literals);
  EXPECT_EQ(a.report.factored_nodes, b.report.factored_nodes);
  EXPECT_EQ(a.report.total_faults, b.report.total_faults);
  EXPECT_EQ(a.report.coverage, b.report.coverage);  // exact double
  EXPECT_EQ(a.report.feedback_coverage, b.report.feedback_coverage);
  // Bit-identical fault verdicts, not just the same ratio:
  EXPECT_EQ(a.coverage.total, b.coverage.total);
  EXPECT_EQ(a.coverage.detected, b.coverage.detected);
  EXPECT_EQ(a.coverage.simulated, b.coverage.simulated);
  EXPECT_EQ(a.coverage.undetected, b.coverage.undetected);
}

TEST(JobCache, WarmRerunIsBitIdenticalAndAllHits) {
  JobCache cache;
  std::vector<CampaignJobSpec> specs;
  // Corpus-wide over the OSTR-free architectures; fig4 (which pays the
  // OSTR search) on a small subset.
  for (const std::string& name : cheap_machines()) {
    for (ArchKind arch : {ArchKind::kFig1, ArchKind::kFig2, ArchKind::kFig3}) {
      CampaignJobSpec s;
      s.machine = name;
      s.arch = arch;
      s.bist_cycles = 64;
      s.functional_cycles = 128;
      specs.push_back(s);
    }
  }
  for (const std::string& name : {"paper_fig5", "dk27", "serial_adder"}) {
    CampaignJobSpec s;
    s.machine = name;
    s.arch = ArchKind::kFig4;
    s.bist_cycles = 64;
    specs.push_back(s);
  }

  std::vector<CampaignJobResult> cold, warm;
  for (const CampaignJobSpec& s : specs) cold.push_back(run_campaign_job(s, cache));
  const JobCacheStats mid = cache.stats();
  for (const CampaignJobSpec& s : specs) warm.push_back(run_campaign_job(s, cache));
  const JobCacheStats after = cache.stats();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(cold[i], warm[i],
                     specs[i].machine + "/" + arch_name(specs[i].arch));
    EXPECT_TRUE(warm[i].machine_cached);
    EXPECT_TRUE(warm[i].structure_cached);
    if (specs[i].arch != ArchKind::kFig1) EXPECT_TRUE(warm[i].warm_cached);
  }
  // The warm pass added exactly one hit per cache lookup and zero misses.
  EXPECT_EQ(after.machine_misses, mid.machine_misses);
  EXPECT_EQ(after.structure_misses, mid.structure_misses);
  EXPECT_EQ(after.warm_misses, mid.warm_misses);
  EXPECT_EQ(after.ostr_misses, mid.ostr_misses);
  EXPECT_EQ(after.machine_hits, mid.machine_hits + specs.size());
  EXPECT_EQ(after.structure_hits, mid.structure_hits + specs.size());
  EXPECT_GT(after.hits(), 0u);
  EXPECT_GT(after.hit_rate(), 0.0);
  // Warm campaigns lease scratch from the free-list: reuses were counted.
  EXPECT_GT(after.scratch_reuses, 0u);
}

TEST(JobCache, StructureKeyIsContentNotName) {
  JobCache cache;
  // Two names, identical machine content: one structure build, one hit.
  const auto loader = [](const std::string&) { return load_benchmark("dk27"); };
  auto a = cache.machine("alias_a", loader);
  auto b = cache.machine("alias_b", loader);
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  OstrOptions oopt;
  bool hit_a = true, hit_b = false;
  cache.structure(a, ArchKind::kFig2, Technology::kTwoLevel, oopt, Budget(),
                  &hit_a);
  cache.structure(b, ArchKind::kFig2, Technology::kTwoLevel, oopt, Budget(),
                  &hit_b);
  EXPECT_FALSE(hit_a);
  EXPECT_TRUE(hit_b);  // same fingerprint -> same entry, no rebuild
}

TEST(JobCache, DegradedStructureIsNotServedToLaterJobs) {
  JobCache cache;
  CampaignJobSpec spec;
  spec.machine = "dk16";
  spec.arch = ArchKind::kFig2;
  spec.tech = Technology::kMultiLevel;
  spec.bist_cycles = 64;

  // A job starved by its deadline builds a truncated structure...
  const CampaignJobResult starved =
      run_campaign_job(spec, cache, Budget::deadline_ms(0));
  ASSERT_TRUE(starved.error.empty()) << starved.error;
  EXPECT_FALSE(starved.structure_cached);
  EXPECT_FALSE(starved.report.degradations.empty());

  // ...which the next job on the same key, with no budget, never sees: it
  // builds again (a structure miss) and gets the full-quality result.
  const CampaignJobResult full = run_campaign_job(spec, cache);
  ASSERT_TRUE(full.error.empty()) << full.error;
  EXPECT_FALSE(full.structure_cached);
  EXPECT_FALSE(full.warm_cached);
  EXPECT_TRUE(full.report.degradations.empty())
      << render_degradations(full.report.degradations);
  JobCacheStats st = cache.stats();
  EXPECT_EQ(st.structure_misses, 2u);
  EXPECT_EQ(st.structure_hits, 0u);

  // The complete build is published: a third job is served it, whatever
  // its own budget, along with its cache-keyed warm state.
  const CampaignJobResult again =
      run_campaign_job(spec, cache, Budget::deadline_ms(0));
  EXPECT_TRUE(again.structure_cached);
  EXPECT_TRUE(again.warm_cached);
  EXPECT_EQ(again.report.area_ge, full.report.area_ge);
  st = cache.stats();
  EXPECT_EQ(st.structure_misses, 2u);
  EXPECT_EQ(st.structure_hits, 1u);
}

TEST(JobCache, TruncatedOstrSearchIsNotServedToLaterJobs) {
  // Fig. 4 builds on the machine's OSTR search, which the machine entry
  // keeps for all of the machine's fig4 jobs. bbara's search completes
  // well inside the default node cap.
  JobCache cache;
  CampaignJobSpec spec;
  spec.machine = "bbara";
  spec.arch = ArchKind::kFig4;
  spec.tech = Technology::kTwoLevel;
  spec.bist_cycles = 64;

  const auto has_ostr_stage = [](const CampaignJobResult& r) {
    for (const Degradation& d : r.report.degradations)
      if (d.stage == "ostr") return true;
    return false;
  };

  // A starved job's search stops at once (the doubling pair); the job
  // reports it, and neither the search nor the structure is stored...
  const CampaignJobResult starved =
      run_campaign_job(spec, cache, Budget::deadline_ms(0));
  ASSERT_TRUE(starved.error.empty()) << starved.error;
  EXPECT_TRUE(has_ostr_stage(starved))
      << render_degradations(starved.report.degradations);

  // ...so an unlimited job searches again and builds the full-quality
  // structure, the same one a fresh cache builds.
  const CampaignJobResult full = run_campaign_job(spec, cache);
  ASSERT_TRUE(full.error.empty()) << full.error;
  EXPECT_FALSE(full.structure_cached);
  EXPECT_TRUE(full.report.degradations.empty())
      << render_degradations(full.report.degradations);
  JobCache fresh;
  EXPECT_EQ(full.report.area_ge, run_campaign_job(spec, fresh).report.area_ge);
  JobCacheStats st = cache.stats();
  EXPECT_EQ(st.ostr_misses, 2u);
  EXPECT_EQ(st.structure_misses, 2u);

  // The complete search is stored: a fig4 job in the other technology
  // reuses it, whatever its own budget.
  spec.tech = Technology::kMultiLevel;
  const CampaignJobResult other =
      run_campaign_job(spec, cache, Budget::deadline_ms(0));
  ASSERT_TRUE(other.error.empty()) << other.error;
  EXPECT_FALSE(has_ostr_stage(other))
      << render_degradations(other.report.degradations);
  st = cache.stats();
  EXPECT_EQ(st.ostr_misses, 2u);
  EXPECT_EQ(st.ostr_hits, 1u);
}

TEST(JobCache, UnpublishedStructureGetsPrivateWarmStates) {
  JobCache cache;
  auto m = cache.machine("dk16");
  bool hit = true;
  const auto s = cache.structure(m, ArchKind::kFig3, Technology::kTwoLevel,
                                 OstrOptions{}, Budget::deadline_ms(0), &hit);
  EXPECT_FALSE(hit);
  ASSERT_FALSE(s->cs.degradations.empty());
  EXPECT_FALSE(s->published);
  // Never keyed on the private structure's address: every request
  // compiles its own state and counts a miss.
  bool warm_hit = true;
  const auto w1 = cache.warm(s, 16, &warm_hit);
  EXPECT_FALSE(warm_hit);
  const auto w2 = cache.warm(s, 16, &warm_hit);
  EXPECT_FALSE(warm_hit);
  EXPECT_NE(w1, w2);
  EXPECT_EQ(cache.stats().warm_misses, 2u);
  EXPECT_EQ(cache.stats().warm_hits, 0u);
}

TEST(JobCache, IdleUnbuiltSlotsAreEvictable) {
  // A key whose only build was degraded holds an unbuilt slot; a bounded
  // cache must be able to drop it like any unpinned entry.
  JobCache cache(1);
  auto m = cache.machine("dk16");
  cache.structure(m, ArchKind::kFig2, Technology::kTwoLevel, OstrOptions{},
                  Budget::deadline_ms(0));
  cache.structure(m, ArchKind::kFig3, Technology::kTwoLevel, OstrOptions{},
                  Budget::deadline_ms(0));
  EXPECT_GE(cache.stats().structure_evictions, 1u);
}

// --- Corpus sweep: determinism and serial equivalence -----------------------

SweepOptions small_sweep(std::size_t jobs) {
  SweepOptions sw;
  sw.machines = {"paper_fig5", "shiftreg", "tav", "dk27", "serial_adder"};
  sw.bist_cycles = 64;
  sw.functional_cycles = 128;
  sw.jobs = jobs;
  return sw;
}

TEST(CorpusSweep, ResultsIdenticalAtEveryJobCount) {
  JobCache c1, c4, c8;
  const CorpusReport r1 = run_corpus_sweep(small_sweep(1), c1);
  const CorpusReport r4 = run_corpus_sweep(small_sweep(4), c4);
  const CorpusReport r8 = run_corpus_sweep(small_sweep(8), c8);
  ASSERT_EQ(r1.rows.size(), r4.rows.size());
  ASSERT_EQ(r1.rows.size(), r8.rows.size());
  for (std::size_t i = 0; i < r1.rows.size(); ++i) {
    // Same submission order at every width (ordered retirement)...
    EXPECT_EQ(r1.rows[i].spec.machine, r4.rows[i].spec.machine);
    EXPECT_EQ(arch_name(r1.rows[i].spec.arch), arch_name(r4.rows[i].spec.arch));
    // ...and bit-identical results.
    const std::string label = r1.rows[i].spec.machine + "/" +
                              arch_name(r1.rows[i].spec.arch);
    expect_identical(r1.rows[i], r4.rows[i], label + " jobs1-vs-4");
    expect_identical(r1.rows[i], r8.rows[i], label + " jobs1-vs-8");
  }
  EXPECT_EQ(r1.jobs_completed, r1.jobs_total);
  EXPECT_EQ(r4.faults_detected, r1.faults_detected);
  EXPECT_EQ(r8.faults_detected, r1.faults_detected);
  EXPECT_EQ(r4.area_ge, r1.area_ge);
}

TEST(CorpusSweep, MatchesDirectSerialMeasureStructure) {
  JobCache cache;
  const SweepOptions sw = small_sweep(4);
  const CorpusReport rep = run_corpus_sweep(sw, cache);
  for (const CampaignJobResult& row : rep.rows) {
    if (row.spec.arch != ArchKind::kFig2 && row.spec.arch != ArchKind::kFig3)
      continue;  // fig1/fig4 paths exercised above; keep the test fast
    const MealyMachine m = load_benchmark(row.spec.machine);
    const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
    const ControllerStructure cs = row.spec.arch == ArchKind::kFig2
                                       ? build_fig2(enc)
                                       : build_fig3(enc);
    FlowOptions fopt;
    fopt.with_fault_sim = true;
    fopt.bist_cycles = sw.bist_cycles;
    fopt.functional_cycles = sw.functional_cycles;
    CoverageResult cov;
    const StructureReport ref = measure_structure(cs, fopt, &cov);
    SCOPED_TRACE(row.spec.machine + "/" + arch_name(row.spec.arch));
    EXPECT_EQ(ref.area_ge, row.report.area_ge);
    EXPECT_EQ(ref.total_faults, row.report.total_faults);
    EXPECT_EQ(ref.coverage, row.report.coverage);
    EXPECT_EQ(cov.undetected, row.coverage.undetected);
  }
}

TEST(CorpusSweep, RowOrderIsMachineMajorThenTechThenArch) {
  SweepOptions sw;
  sw.machines = {"a", "b"};
  sw.techs = {Technology::kTwoLevel, Technology::kMultiLevel};
  sw.archs = {ArchKind::kFig1, ArchKind::kFig2};
  sw.repeat = 2;
  const auto specs = expand_sweep(sw);
  ASSERT_EQ(specs.size(), 2u * 2u * 2u * 2u);
  EXPECT_EQ(specs[0].machine, "a");
  EXPECT_EQ(specs[0].tech, Technology::kTwoLevel);
  EXPECT_EQ(arch_name(specs[0].arch), std::string("fig1"));
  EXPECT_EQ(arch_name(specs[1].arch), std::string("fig2"));
  EXPECT_EQ(specs[2].tech, Technology::kMultiLevel);
  EXPECT_EQ(specs[4].machine, "b");
  EXPECT_EQ(specs[8].machine, "a");  // second repeat restarts the list
}

// --- Cancellation -----------------------------------------------------------

TEST(CorpusSweep, PreCancelledSweepDrainsToSkippedRows) {
  auto cancel = std::make_shared<CancelToken>();
  cancel->request();
  SweepOptions sw = small_sweep(4);
  sw.cancel = cancel;
  JobCache cache;
  const CorpusReport rep = run_corpus_sweep(sw, cache);
  EXPECT_TRUE(rep.cancelled);
  EXPECT_EQ(rep.jobs_skipped, rep.jobs_total);
  EXPECT_EQ(rep.jobs_completed, 0u);
  EXPECT_EQ(rep.total_faults, 0u);
  for (const auto& row : rep.rows) EXPECT_TRUE(row.skipped);
}

TEST(CorpusSweep, MidSweepCancelDrainsToValidPartialAggregates) {
  auto cancel = std::make_shared<CancelToken>();
  SweepOptions sw = small_sweep(2);
  sw.cancel = cancel;
  JobCache cache;
  std::size_t rows_seen = 0;
  std::size_t streamed = 0;
  const CorpusReport rep =
      run_corpus_sweep(sw, cache, [&](const CampaignJobResult& row) {
        (void)row;
        ++streamed;
        if (++rows_seen == 3) cancel->request();  // cancel mid-flight
      });
  EXPECT_TRUE(rep.cancelled);
  EXPECT_EQ(streamed, rep.jobs_total);  // every row retired, none dropped
  EXPECT_EQ(rep.jobs_completed + rep.jobs_skipped + rep.jobs_failed,
            rep.jobs_total);
  EXPECT_GE(rep.jobs_completed, 3u);  // the rows seen before the cancel
  EXPECT_EQ(rep.jobs_failed, 0u);     // cancellation is NOT an error
  // Aggregates cover exactly the completed rows.
  std::size_t detected = 0;
  for (const auto& row : rep.rows)
    if (!row.skipped && row.error.empty()) detected += row.coverage.detected;
  EXPECT_EQ(rep.faults_detected, detected);
}

}  // namespace
}  // namespace stc
