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
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchdata/iwls93.hpp"
#include "encoding/encoding.hpp"
#include "jobs/orchestrator.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

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
  // A warm state is bound to one structure object; a fleet shard handed
  // one built for another structure fails typed before any simulation.
  const MealyMachine m = load_benchmark("dk27");
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const ControllerStructure fig3 = build_fig3(enc);
  const ControllerStructure fig2 = build_fig2(enc);
  const SelfTestPlan plan = SelfTestPlan::two_session(16);
  const FleetDefectSampler no_defects = [](std::uint64_t, std::vector<Fault>&) {};
  const std::vector<FleetObserver> one_width = {FleetObserver{16}};
  auto warm = make_campaign_warm_state(fig3);
  try {
    run_fleet_shard(fig2, plan, one_width, *warm, 1, 0, 32, no_defects,
                    Budget{});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(e.context().find("warm"), std::string::npos) << e.context();
  }
  EXPECT_EQ(campaign_warm_builds(*warm), 0u);  // rejected before any lease
  // Matching structure: accepted.
  const FleetShardStats st = run_fleet_shard(fig3, plan, one_width, *warm, 1,
                                             0, 32, no_defects, Budget{})
                                 .front();
  EXPECT_EQ(st.instances, 32u);
  EXPECT_EQ(st.sig_detected, 0u);  // fault-free instances never flag
  EXPECT_EQ(campaign_warm_builds(*warm), 1u);
}

TEST(CorpusRow, LongJobTimeStaysItsOwnField) {
  // A job of 10 s or more is as wide as the time column: the row must
  // still split into whitespace fields with the time as field 9 and the
  // cache flags as field 10, which is how scripts drop those two columns.
  CampaignJobResult row;
  row.spec.machine = "s1";
  row.spec.arch = ArchKind::kFig4;
  row.report.technology = "multi_level";
  row.report.flipflops = 10;
  row.report.area_ge = 21972.0;
  row.report.depth = 9;
  row.seconds = 12.3;
  row.machine_cached = true;
  std::istringstream in(render_corpus_row(row));
  std::vector<std::string> fields;
  for (std::string f; in >> f;) fields.push_back(f);
  ASSERT_EQ(fields.size(), 10u) << render_corpus_row(row);
  EXPECT_EQ(fields[6], "-");
  EXPECT_EQ(fields[7], "-");
  EXPECT_EQ(fields[8], "12300.0ms");
  EXPECT_EQ(fields[9], "M.");
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
  }
  // The warm pass added exactly one hit per cache lookup and zero misses.
  EXPECT_EQ(after.machine_misses, mid.machine_misses);
  EXPECT_EQ(after.structure_misses, mid.structure_misses);
  EXPECT_EQ(after.ostr_misses, mid.ostr_misses);
  EXPECT_EQ(after.machine_hits, mid.machine_hits + specs.size());
  EXPECT_EQ(after.structure_hits, mid.structure_hits + specs.size());
  EXPECT_GT(after.hits(), 0u);
  EXPECT_GT(after.hit_rate(), 0.0);
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
  EXPECT_TRUE(full.report.degradations.empty())
      << render_degradations(full.report.degradations);
  JobCacheStats st = cache.stats();
  EXPECT_EQ(st.structure_misses, 2u);
  EXPECT_EQ(st.structure_hits, 0u);

  // The complete build is stored: a third job is served it, whatever its
  // own budget.
  const CampaignJobResult again =
      run_campaign_job(spec, cache, Budget::deadline_ms(0));
  EXPECT_TRUE(again.structure_cached);
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

TEST(JobCache, CappedOstrSearchIsServedToJobsWithTheSameCap) {
  // dk16's search stops at the default 2,000,000-node cap. That stop is
  // deterministic in the cap, so the cache keeps the search, and the
  // structure built on it, for the later fig4 jobs with the same cap.
  JobCache cache;
  CampaignJobSpec spec;
  spec.machine = "dk16";
  spec.arch = ArchKind::kFig4;
  spec.tech = Technology::kTwoLevel;
  spec.with_fault_sim = false;

  const auto ostr_label = [](const CampaignJobResult& r) {
    for (const Degradation& d : r.report.degradations)
      if (d.stage == "ostr") return d;
    return Degradation{};
  };

  const CampaignJobResult first = run_campaign_job(spec, cache);
  ASSERT_TRUE(first.error.empty()) << first.error;
  const Degradation label = ostr_label(first);
  ASSERT_TRUE(label.degraded) << render_degradations(first.report.degradations);
  EXPECT_EQ(label.reason, "work-allowance");
  JobCacheStats st = cache.stats();
  EXPECT_EQ(st.ostr_misses, 1u);
  EXPECT_EQ(st.ostr_hits, 0u);

  // Same options: a structure hit, with the search's label and the same
  // report. The stored structure is served, so the search is not looked up.
  const CampaignJobResult second = run_campaign_job(spec, cache);
  ASSERT_TRUE(second.error.empty()) << second.error;
  st = cache.stats();
  EXPECT_EQ(st.ostr_misses, 1u);
  EXPECT_EQ(st.ostr_hits, 0u);
  EXPECT_EQ(st.structure_misses, 1u);
  EXPECT_EQ(st.structure_hits, 1u);
  EXPECT_TRUE(second.structure_cached);
  expect_identical(first, second, "dk16/fig4 second job");
  const Degradation again = ostr_label(second);
  EXPECT_TRUE(again.degraded);
  EXPECT_EQ(again.reason, label.reason);
  EXPECT_EQ(again.work_done, label.work_done);
  EXPECT_EQ(again.detail, label.detail);
  EXPECT_EQ(render_degradations(second.report.degradations),
            render_degradations(first.report.degradations));

  // A different max_nodes is a different search and a different
  // structure: both are computed again.
  spec.ostr_max_nodes = 1000;
  const CampaignJobResult smaller = run_campaign_job(spec, cache);
  ASSERT_TRUE(smaller.error.empty()) << smaller.error;
  EXPECT_FALSE(smaller.structure_cached);
  st = cache.stats();
  EXPECT_EQ(st.ostr_misses, 2u);
  EXPECT_EQ(st.ostr_hits, 0u);
  EXPECT_EQ(st.structure_misses, 2u);
  const Degradation capped = ostr_label(smaller);
  EXPECT_TRUE(capped.degraded);
  EXPECT_LT(capped.work_done, label.work_done);
}

TEST(JobCache, FailedMachineLoadIsRetriedAsAMiss) {
  // A load that throws stores nothing: the next call loads again and that
  // is a miss, not a hit on the slot the failed call created.
  JobCache cache;
  int loads = 0;
  const auto flaky = [&loads](const std::string&) {
    if (++loads == 1) throw Error(ErrorCode::kIo, "transient load failure");
    return load_benchmark("dk27");
  };
  EXPECT_THROW(cache.machine("flaky", flaky), Error);
  bool hit = true;
  const auto m = cache.machine("flaky", flaky, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(m->fsm.num_states(), load_benchmark("dk27").num_states());
  JobCacheStats st = cache.stats();
  EXPECT_EQ(st.machine_misses, 2u);
  EXPECT_EQ(st.machine_hits, 0u);

  // A built entry is a hit, and the loader is not called.
  EXPECT_EQ(cache.machine("flaky", flaky, &hit), m);
  EXPECT_TRUE(hit);
  EXPECT_EQ(loads, 2);
  st = cache.stats();
  EXPECT_EQ(st.machine_misses, 2u);
  EXPECT_EQ(st.machine_hits, 1u);

  // The same holds when the build's fault point fires instead.
  FaultSpec once;
  faultpoints::arm("cache.machine.build", once);
  EXPECT_THROW(cache.machine("dk16"), Error);
  faultpoints::reset();
  const auto corpus = [](const std::string& n) { return load_benchmark(n); };
  EXPECT_NE(cache.machine("dk16", corpus, &hit), nullptr);
  EXPECT_FALSE(hit);
  st = cache.stats();
  EXPECT_EQ(st.machine_misses, 4u);
  EXPECT_EQ(st.machine_hits, 1u);
}

TEST(JobCache, BoundedCacheHoldsAtMostMaxEntriesUnpinnedStructures) {
  // Each stored structure evicts the least recently used unpinned one
  // once the cache holds more than max_entries; a leased one stays.
  JobCache cache(2);
  const auto m = cache.machine("dk27");
  const auto build = [&](ArchKind arch) {
    bool hit = false;
    cache.structure(m, arch, Technology::kTwoLevel, OstrOptions{}, Budget(), &hit);
    return hit;
  };
  const auto leased = cache.structure(m, ArchKind::kFig1, Technology::kTwoLevel,
                                      OstrOptions{}, Budget());
  EXPECT_FALSE(build(ArchKind::kFig2));
  EXPECT_FALSE(build(ArchKind::kFig3));  // 3 stored: fig2 (unpinned) goes
  EXPECT_EQ(cache.stats().structure_evictions, 1u);
  EXPECT_FALSE(build(ArchKind::kFig4));  // fig3 goes
  EXPECT_EQ(cache.stats().structure_evictions, 2u);
  EXPECT_TRUE(build(ArchKind::kFig1));   // the leased entry was kept
  EXPECT_TRUE(build(ArchKind::kFig4));
  EXPECT_FALSE(build(ArchKind::kFig2));  // evicted: built again
  EXPECT_EQ(cache.stats().structure_evictions, 3u);
}

TEST(JobCache, ConcurrentMissesAllReceiveTheStoredEntry) {
  // No call waits for another's computation: concurrent misses each
  // compute, and every caller gets back the one stored result. The
  // fig1-3 builds share C through the machine entry's block memo, so they
  // must all see the same machine entry.
  JobCache cache;
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const JobCache::MachineEntry>> machines(kThreads);
  std::vector<std::shared_ptr<const ControllerStructure>> structures(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      machines[t] = cache.machine("s1");
      structures[t] = cache.structure(cache.machine("dk27"), ArchKind::kFig2,
                                      Technology::kTwoLevel, OstrOptions{}, Budget());
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(machines[t], machines[0]) << "thread " << t;
    EXPECT_EQ(structures[t], structures[0]) << "thread " << t;
  }
  // Every miss computed a storable result, and one per key was stored:
  // the rest lost the race.
  const JobCacheStats st = cache.stats();
  EXPECT_EQ(st.machine_hits + st.machine_misses, 2 * kThreads);
  EXPECT_EQ(st.structure_hits + st.structure_misses, kThreads);
  EXPECT_EQ(st.lost_races, st.machine_misses + st.structure_misses - 3);
}

// --- Corpus sweep: determinism and serial equivalence -----------------------

SweepOptions small_sweep(std::size_t jobs) {
  SweepOptions sw;
  sw.machines = {"paper_fig5", "shiftreg", "tav", "dk27", "serial_adder"};
  sw.job.bist_cycles = 64;
  sw.job.functional_cycles = 128;
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
    fopt.bist_cycles = sw.job.bist_cycles;
    fopt.functional_cycles = sw.job.functional_cycles;
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
