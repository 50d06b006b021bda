// fleet_sim -- deployment-scale BIST simulation: millions of manufactured
// instances of one controller, each running its self-test with its own
// derived LFSR seeds and sampled defects, lane-packed onto the
// bit-parallel campaign engine. Reports the empirical MISR alias
// probability (with a 95% Wilson interval) against the theoretical 2^-k
// bound per signature width, defect escape rates, and the test-length /
// detection tradeoff curve.
//
// Run: see kUsage below.
//
// Aggregate counts are bit-identical at every --jobs value and shard size
// (each instance's outcome is a pure function of its id); only wall time
// differs. Shards of 256 or more instances run 256 per self-test run (512
// lanes). Ctrl-C
// / --budget-ms truncate gracefully with exact partial counts, labeled in
// the report. Exits 0 with a final "fleet_sim ok:" line (the CI smoke
// greps for it), 1 on failure, 2 on an unknown flag or a malformed
// number (after printing the usage).

#include <cstdio>
#include <thread>

#include "jobs/orchestrator.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

const char kUsage[] =
    "usage: fleet_sim [--machine dk27] [--arch fig2|fig3|fig4]\n"
    "                 [--instances 1e6] [--widths 8,16,24,40]\n"
    "                 [--distribution fault_free|single_uniform|clustered]\n"
    "                 [--defect-rate X] [--jobs N] [--cycles N] [--seed N]\n"
    "                 [--budget-ms N] [--tech two_level|multi_level]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace stc;
  const auto parsed = parse_cli(
      argc, argv, kUsage,
      {"machine", "arch", "tech", "widths", "distribution"},
      {"cycles", "seed", "jobs", "budget-ms"}, {"instances", "defect-rate"});
  if (!parsed) return 2;
  const Cli& cli = *parsed;
  try {
    CampaignJobSpec spec;
    spec.machine = cli.get("machine", "dk27");
    spec.arch = parse_arch(cli.get("arch", "fig4"));
    spec.tech = parse_technology(cli.get("tech", "two_level"));
    spec.bist_cycles = static_cast<std::size_t>(cli.get_int("cycles", 256));

    // --instances accepts scientific notation ("1e6") -- fleets are big.
    const double inst = cli.get_double("instances", 1e6);
    if (!(inst >= 1.0)) {
      std::fprintf(stderr, "error: --instances must be >= 1\n");
      return 2;
    }
    spec.fleet_instances = static_cast<std::uint64_t>(inst);
    const std::string widths = cli.get("widths", "");
    if (!widths.empty()) {
      spec.fleet_widths.clear();
      for (const std::string& part : split_on(widths, ','))
        spec.fleet_widths.push_back(parse_size(trim(part)));
    }
    spec.fleet_distribution =
        parse_defect_model(cli.get("distribution", "single_uniform"));
    spec.fleet_defect_rate = cli.get_double("defect-rate", 1.0);
    spec.fleet_seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 0xF1EE7));

    const std::size_t hw = std::thread::hardware_concurrency();
    const std::size_t jobs = static_cast<std::size_t>(
        cli.get_int("jobs", hw > 0 ? static_cast<long>(hw) : 1));

    Budget budget;
    const long budget_ms = cli.get_int("budget-ms", -1);
    if (budget_ms >= 0) budget.with_deadline_ms(static_cast<double>(budget_ms));
    budget.with_cancel(install_sigint_cancel());

    // Same artifact path as a spooled/orchestrated job: the cache builds
    // machine -> structure -> warm states, the shared pool runs the shards.
    JobCache cache;
    TaskPool pool(std::max<std::size_t>(1, jobs));
    PoolChunkExecutor exec(pool);
    const CampaignJobResult r = run_campaign_job(spec, cache, budget, &exec);

    if (r.failed()) {
      std::fprintf(stderr, "fleet_sim FAILED: %s [%s]\n", r.error.c_str(),
                   error_code_name(r.error_code));
      return 1;
    }
    std::printf("%s %s (%s): %zu FFs, %.1f GE, depth %zu\n",
                spec.machine.c_str(), arch_name(spec.arch),
                r.report.technology.c_str(), r.report.flipflops,
                r.report.area_ge, r.report.depth);
    std::printf("%s", render_fleet_report(*r.fleet).c_str());
    if (r.fleet->degradation.degraded)
      std::printf("fleet_sim truncated (%s) -- partial counts are exact\n",
                  r.fleet->degradation.reason.c_str());
    std::printf("fleet_sim ok: %llu instances simulated\n",
                static_cast<unsigned long long>(
                    r.fleet->instances_simulated()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
