// stcd -- the durable BIST-synthesis daemon over a file-backed job spool.
//
// Run: see kUsage below. An unknown flag or a malformed number prints the
// usage and exits 2.
//
// serve claims jobs from <spool-dir>/pending, runs them on one persistent
// pool + artifact cache, and retires them into done/ or failed/ with a
// result record next to each job file. SIGINT/SIGTERM drains gracefully
// (in-flight jobs are cancelled and requeued or retired; a second signal
// kills). Startup always runs crash recovery first, so a daemon that was
// SIGKILLed mid-sweep resumes with every job in a well-defined state and
// nothing run twice. --drain exits once the spool is empty (the CI smoke
// and batch mode); without it the daemon waits for more submissions.
//
// STC_FAULTPOINTS=name@N[xC][!crash|~MS],... arms fault-injection points
// (util/faultpoint) in the child -- the crash-recovery tests drive serve
// through injected torn writes, rename crashes, and wedged jobs.

#include <cstdio>
#include <cstring>

#include "benchdata/iwls93.hpp"
#include "jobs/daemon.hpp"
#include "util/budget.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/strings.hpp"

namespace {

const char kUsage[] =
    "usage: stc_daemon serve  <spool-dir> [--jobs N] [--budget-ms N]\n"
    "                         [--drain] [--cache-max-entries N]\n"
    "                         [--max-attempts N] [--max-recoveries N]\n"
    "                         [--watchdog-grace X] [--watchdog-kill-grace X]\n"
    "                         [--quiet]\n"
    "       stc_daemon submit <spool-dir> --machine NAME [--arch fig1..fig4]\n"
    "                         [--tech two_level|multi_level] [--cycles N]\n"
    "                         [--functional-cycles N]\n"
    "                         [--no-faultsim] [--budget-ms N] [--count N]\n"
    "                         [--fleet-instances N] [--fleet-widths 8,16,24,40]\n"
    "                         [--distribution fault_free|single_uniform|clustered]\n"
    "                         [--defect-rate X] [--fleet-seed N]\n"
    "       stc_daemon status <spool-dir>\n"
    "  --cache-max-entries N  keep at most N built structures in memory,\n"
    "                         evicting the least recently used idle one\n"
    "                         (0 = unbounded)\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

int cmd_serve(const stc::Cli& cli, const std::string& spool) {
  using namespace stc;
  DaemonOptions opt;
  opt.spool_dir = spool;
  opt.jobs = static_cast<std::size_t>(cli.get_int("jobs", 1));
  opt.default_budget_ms = static_cast<double>(cli.get_int("budget-ms", -1));
  opt.drain = cli.has("drain");
  opt.cache_max_entries =
      static_cast<std::size_t>(cli.get_int("cache-max-entries", 0));
  opt.retry.max_attempts =
      static_cast<std::size_t>(cli.get_int("max-attempts", 3));
  opt.watchdog_grace = cli.get_double("watchdog-grace", 2.0);
  opt.watchdog_kill_grace = cli.get_double("watchdog-kill-grace", 4.0);
  opt.max_recoveries =
      static_cast<std::uint64_t>(cli.get_int("max-recoveries", 3));
  opt.shutdown = install_sigint_cancel();
  if (!cli.has("quiet")) {
    opt.log = [](const std::string& line) {
      std::printf("stcd: %s\n", line.c_str());
      std::fflush(stdout);
    };
  }

  const DaemonReport rep = run_daemon(opt);
  std::printf(
      "stcd: served %zu done, %zu failed, %zu stuck, %zu requeued "
      "(%zu attempts, %zu watchdog cancels) in %.2fs\n",
      rep.jobs_done, rep.jobs_failed, rep.jobs_stuck, rep.jobs_requeued,
      rep.attempts_total, rep.watchdog_cancels, rep.wall_seconds);
  std::printf("stcd: cache %zu hits / %zu misses (%.0f%% hit rate)\n",
              rep.cache.hits(), rep.cache.misses(),
              100.0 * rep.cache.hit_rate());
  // A drained shutdown is a SUCCESS exit: the supervisor asked us to stop
  // and we stopped cleanly. Hard failures in served jobs do not fail the
  // daemon process either -- they are per-job results in failed/.
  return 0;
}

int cmd_submit(const stc::Cli& cli, const std::string& spool) {
  using namespace stc;
  SpoolJob job;
  job.spec.machine = cli.get("machine", "");
  if (job.spec.machine.empty()) {
    std::fprintf(stderr, "error: submit requires --machine\n");
    return 2;
  }
  job.spec.arch = parse_arch(cli.get("arch", "fig1"));
  job.spec.tech = parse_technology(cli.get("tech", "two_level"));
  job.spec.bist_cycles = static_cast<std::size_t>(cli.get_int("cycles", 256));
  job.spec.functional_cycles =
      static_cast<std::size_t>(cli.get_int("functional-cycles", 512));
  job.spec.with_fault_sim = !cli.has("no-faultsim");
  job.budget_ms = static_cast<double>(cli.get_int("budget-ms", -1));
  // Fleet mode: the spooled job becomes a deployment simulation.
  job.spec.fleet_instances =
      static_cast<std::uint64_t>(cli.get_int("fleet-instances", 0));
  if (job.spec.fleet_instances > 0) {
    const std::string widths = cli.get("fleet-widths", "");
    if (!widths.empty()) {
      job.spec.fleet_widths.clear();
      for (const std::string& part : split_on(widths, ','))
        job.spec.fleet_widths.push_back(parse_size(trim(part)));
    }
    job.spec.fleet_distribution =
        parse_defect_model(cli.get("distribution", "single_uniform"));
    job.spec.fleet_defect_rate = cli.get_double("defect-rate", 1.0);
    job.spec.fleet_seed =
        static_cast<std::uint64_t>(cli.get_int("fleet-seed", 0xF1EE7));
  }

  JobQueue queue(spool);
  const long count = cli.get_int("count", 1);
  for (long i = 0; i < count; ++i) {
    SpoolJob j = job;
    std::printf("%s\n", queue.submit(std::move(j)).c_str());
  }
  return 0;
}

int cmd_status(const std::string& spool) {
  using namespace stc;
  JobQueue queue(spool);
  const JobQueue::Counts c = queue.scan();
  std::printf("pending %zu  running %zu  done %zu  failed %zu\n", c.pending,
              c.running, c.done, c.failed);
  for (const std::string& id : queue.list_failed()) {
    const auto r = queue.result(id);
    if (r) {
      std::printf("  %s %s: %s [%s]\n", r->status.c_str(), id.c_str(),
                  r->error.c_str(), r->error_code.c_str());
    }
  }
  for (const std::string& id : queue.list_done()) {
    const auto r = queue.result(id);
    if (!r) continue;
    std::printf("  done %s: %.3fs", id.c_str(), r->seconds);
    if (r->coverage >= 0.0)
      std::printf("  coverage %.4f (%llu faults)", r->coverage,
                  static_cast<unsigned long long>(r->total_faults));
    if (r->fleet_instances > 0)
      std::printf("  fleet %llu instances",
                  static_cast<unsigned long long>(r->fleet_instances));
    if (!r->degradation.empty())
      std::printf("  [degraded: %s]", r->degradation.c_str());
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stc;
  const auto parsed = parse_cli(
      argc, argv, kUsage,
      {"drain", "quiet", "machine", "arch", "tech", "no-faultsim",
       "fleet-widths", "distribution"},
      {"jobs", "budget-ms", "cache-max-entries", "max-attempts",
       "max-recoveries", "cycles", "functional-cycles", "count",
       "fleet-instances", "fleet-seed"},
      {"defect-rate", "watchdog-grace", "watchdog-kill-grace"});
  if (!parsed) return 2;
  const Cli& cli = *parsed;
  if (cli.positional().size() < 2) return usage();
  const std::string& cmd = cli.positional()[0];
  const std::string& spool = cli.positional()[1];

  try {
    faultpoints::arm_from_env();
    if (cmd == "serve") return cmd_serve(cli, spool);
    if (cmd == "submit") return cmd_submit(cli, spool);
    if (cmd == "status") return cmd_status(spool);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
