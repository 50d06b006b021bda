// Self-test demonstration: why the pipeline structure (Fig. 4) beats the
// conventional BIST structure (Fig. 2).
//
// For a chosen machine this example
//   1. builds both structures at gate level,
//   2. runs the conventional single-session BIST and the two-session
//      pipeline BIST,
//   3. fault-simulates all single stuck-at faults, and
//   4. reports overall coverage plus the coverage of the R -> C feedback
//      lines -- the fault class the paper highlights as undetected in the
//      conventional scheme (drawback (3) of Section 1).
//
// Run:  ./selftest_demo [--machine shiftreg] [--cycles 256] [--threads 1]
// An unknown flag or a non-integer value prints the usage and exits 2.

#include <cstdio>

#include "benchdata/iwls93.hpp"
#include "synth/flow.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace stc;
  const auto parsed = parse_cli(
      argc, argv,
      "usage: selftest_demo [--machine shiftreg] [--cycles 256] [--threads 1]\n",
      {"machine"}, {"cycles", "threads"});
  if (!parsed) return 2;
  const Cli& cli = *parsed;
  const std::string name = cli.get("machine", "shiftreg");
  const std::size_t cycles = static_cast<std::size_t>(cli.get_int("cycles", 256));

  MealyMachine m;
  try {
    m = load_benchmark(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const Encoding enc = natural_encoding(m.num_states());
  const EncodedFsm encoded = encode_fsm(m, enc);

  const ControllerStructure fig2 = build_fig2(encoded);
  const ControllerStructure fig4 = build_fig4(m, real);

  std::printf("machine %s: |S|=%zu, OSTR %zux%zu\n", name.c_str(), m.num_states(),
              ostr.best.s1, ostr.best.s2);
  std::printf("fig2 (conventional BIST): %s\n", fig2.nl.stats().c_str());
  std::printf("fig4 (pipeline):          %s\n\n", fig4.nl.stats().c_str());

  // Campaigns run on the bit-parallel engine (63, 255 or 511 faults per run);
  // the detected sets are identical to the serial per-fault oracle.
  CampaignOptions copt;
  copt.num_threads = static_cast<std::size_t>(cli.get_int("threads", 1));

  // --- conventional BIST: one session, T generates, R compresses ---------
  const auto camp2 =
      run_fault_campaign(fig2, SelfTestPlan::conventional(2 * cycles), copt);
  // --- pipeline: two sessions with swapped roles --------------------------
  const auto camp4 = run_fault_campaign(fig4, SelfTestPlan::two_session(cycles), copt);
  const CoverageResult& cov2 = camp2.raw;
  const CoverageResult& cov4 = camp4.raw;

  std::printf("campaign cost: fig2 %zu session runs for %zu faults "
              "(%zu collapsed classes), fig4 %zu runs for %zu (%zu classes)\n\n",
              camp2.session_runs, cov2.total, camp2.collapsed_total,
              camp4.session_runs, cov4.total, camp4.collapsed_total);

  auto feedback_missed = [](const ControllerStructure& cs,
                            const CoverageResult& cov) {
    std::size_t missed = 0;
    for (const Fault& f : cov.undetected)
      for (NetId n : cs.feedback_nets)
        if (f.net == n) ++missed;
    return missed;
  };

  std::printf("conventional BIST (fig2): coverage %5.1f%%  (%zu/%zu faults)\n",
              cov2.coverage() * 100.0, cov2.detected, cov2.total);
  std::printf("  feedback-line faults undetected: %zu of %zu\n",
              feedback_missed(fig2, cov2), 2 * fig2.feedback_nets.size());
  std::printf("pipeline BIST (fig4):     coverage %5.1f%%  (%zu/%zu faults)\n",
              cov4.coverage() * 100.0, cov4.detected, cov4.total);
  std::printf("  (no bypassed feedback path exists in this structure)\n\n");

  std::printf("critical path: fig2 depth %zu vs fig4 depth %zu "
              "(the fig2 mux models the transparency penalty)\n",
              fig2.nl.depth(), fig4.nl.depth());
  return 0;
}
