// Full synthesis flow on a corpus machine or external KISS2 file:
// OSTR -> realization -> encoding -> logic minimization -> the four
// controller structures -> (optionally) fault simulation.
//
// Run: see kUsage below. An unknown flag or a non-integer value prints the
// usage and exits 2.
//
// --all synthesizes the WHOLE corpus (every machine x fig1-fig4 x the
// selected --tech) as CampaignJobs on the jobs/ work-stealing scheduler:
// --jobs sizes the shared pool (results identical at any value), the keyed
// artifact cache deduplicates builds (with --repeat 2 every second-pass
// row reads "MS", a machine and structure hit; a build a deadline cut is
// not stored, one cut only at its OSTR node cap is), and one aggregated
// corpus report closes the run.
//
// With --faultsim the per-structure report includes campaign wall time and
// the event engine's mean per-cycle activity ratio; the engine picks its
// lane width (64, 256 or 512) from the fault count. With --tech
// multi_level the combinational blocks are algebraically factored
// (simulation-equivalent) and the report shows both the two-level PLA and
// the factored cost points.
//
// Anytime operation: --time-budget-ms bounds the wall time of the whole
// flow (OSTR, minimization, factoring, fault campaigns), --max-nodes caps
// the OSTR search, and Ctrl-C cancels gracefully. In every case the flow
// finishes with valid, behavior-exact netlists; truncated stages are
// labeled in the report (a second Ctrl-C kills the process).

#include <cstdio>
#include <thread>

#include "benchdata/iwls93.hpp"
#include "fsm/kiss.hpp"
#include "jobs/orchestrator.hpp"
#include "synth/report.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"
#include "util/faultpoint.hpp"

namespace {

const char kUsage[] =
    "usage: synthesize_benchmark --machine NAME [--faultsim] [--threads N]\n"
    "                            [--tech two_level|multi_level] [--cycles N]\n"
    "                            [--time-budget-ms N] [--max-nodes N]\n"
    "       synthesize_benchmark --all [--jobs N] [--repeat N] [--faultsim]\n"
    "       synthesize_benchmark --kiss path/to/machine.kiss2\n"
    "       synthesize_benchmark --list\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace stc;
  const auto parsed =
      parse_cli(argc, argv, kUsage,
                {"list", "all", "faultsim", "kiss", "machine", "tech"},
                {"jobs", "repeat", "cycles", "max-nodes", "threads",
                 "time-budget-ms"});
  if (!parsed) return 2;
  const Cli& cli = *parsed;
  faultpoints::arm_from_env();

  if (cli.has("list")) {
    std::printf("Available corpus machines:\n");
    for (const auto& info : benchmark_catalog())
      std::printf("  %-14s %s%s\n", info.name.c_str(), info.description.c_str(),
                  info.in_table1 ? "  [Table 1]" : "");
    return 0;
  }

  if (cli.has("all")) {
    const std::size_t hw = std::thread::hardware_concurrency();
    SweepOptions sw;  // empty machine list = the full corpus
    sw.job.with_fault_sim = cli.has("faultsim");
    sw.jobs = static_cast<std::size_t>(
        cli.get_int("jobs", hw > 0 ? static_cast<long>(hw) : 1));
    sw.repeat = static_cast<std::size_t>(cli.get_int("repeat", 1));
    sw.job.bist_cycles = static_cast<std::size_t>(cli.get_int("cycles", 256));
    sw.job.ostr_max_nodes = static_cast<std::uint64_t>(
        cli.get_int("max-nodes", static_cast<long>(sw.job.ostr_max_nodes)));
    try {
      sw.techs = {parse_technology(cli.get("tech", "two_level"))};
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    sw.job_budget_ms = static_cast<double>(cli.get_int("time-budget-ms", -1));
    sw.cancel = install_sigint_cancel();

    std::printf("Corpus synthesis sweep: %zu jobs%s\n", sw.jobs,
                sw.job.with_fault_sim ? ", fault simulation on" : "");
    std::printf("%s\n", corpus_row_header().c_str());
    JobCache cache;
    const CorpusReport rep =
        run_corpus_sweep(sw, cache, [](const CampaignJobResult& row) {
          std::printf("%s\n", render_corpus_row(row).c_str());
          std::fflush(stdout);
        });
    std::printf("\n%s\n", render_corpus_summary(rep).c_str());
    // Nonzero exit on any HARD failure; budget-exhausted rows are valid
    // anytime results and keep the sweep green.
    return hard_failures(rep) == 0 ? 0 : 1;
  }

  MealyMachine m;
  try {
    if (cli.has("kiss")) {
      m = load_kiss2_file(cli.get("kiss", ""));
    } else {
      m = load_benchmark(cli.get("machine", "shiftreg"));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  FlowOptions opts;
  opts.with_fault_sim = cli.has("faultsim");
  opts.ostr.max_nodes = static_cast<std::uint64_t>(cli.get_int("max-nodes", 2000000));
  opts.bist_cycles = static_cast<std::size_t>(cli.get_int("cycles", 256));
  const std::size_t hw = std::thread::hardware_concurrency();
  opts.campaign.num_threads = static_cast<std::size_t>(
      cli.get_int("threads", hw > 0 ? static_cast<long>(hw) : 1));
  try {
    opts.technology = parse_technology(cli.get("tech", "two_level"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // Anytime controls: one whole-flow budget carrying the wall-clock
  // deadline (--time-budget-ms) and SIGINT cancellation. Either one makes
  // the budget non-unlimited, which routes it to every governed stage.
  opts.budget.with_cancel(install_sigint_cancel());
  const long budget_ms = cli.get_int("time-budget-ms", -1);
  if (budget_ms >= 0) opts.budget.with_deadline_ms(static_cast<double>(budget_ms));

  std::printf("Machine: %zu states, %zu inputs, %zu outputs\n\n", m.num_states(),
              m.num_inputs(), m.num_outputs());
  const FlowResult res = run_flow(m, opts);
  std::printf("%s", render_flow_report(m.name(), res).c_str());

  if (!res.verification.ok()) {
    std::fprintf(stderr, "VERIFICATION FAILED: %s\n", res.verification.detail.c_str());
    return 1;
  }
  return 0;
}
