#include "synth/flow.hpp"

#include <chrono>

namespace stc {

StructureReport measure_structure(const ControllerStructure& cs,
                                  const FlowOptions& options,
                                  CoverageResult* coverage_out) {
  StructureReport rep;
  rep.kind = cs.kind;
  rep.technology = technology_name(cs.tech);
  if (cs.ml_fallback_blocks > 0) rep.technology += "(partial)";
  rep.flipflops = cs.nl.num_dffs();
  rep.area_ge = cs.nl.area_ge();
  rep.depth = cs.nl.depth();
  rep.logic = cs.logic;
  rep.logic_ml = cs.logic_ml;
  rep.factored_nodes = cs.factored_nodes;
  rep.degradations = cs.degradations;

  if (options.with_fault_sim) {
    const auto faults = enumerate_stuck_faults(cs.nl);
    rep.total_faults = faults.size();

    // The flow-level budget, when set, governs the measurement stages too.
    CampaignOptions copt = options.campaign;
    if (!options.budget.is_unlimited()) copt.budget = options.budget;

    const auto t0 = std::chrono::steady_clock::now();
    CoverageResult cov;
    if (cs.kind == "fig1") {
      Degradation deg;
      cov = measure_functional_coverage(cs, options.functional_cycles, faults,
                                        0x5EED, copt.budget, &deg);
      if (deg.degraded) rep.degradations.push_back(std::move(deg));
    } else {
      const SelfTestPlan plan =
          cs.kind == "fig2" ? SelfTestPlan::conventional(2 * options.bist_cycles)
                            : SelfTestPlan::two_session(options.bist_cycles);
      CampaignResult camp = run_fault_campaign(cs, plan, copt, faults);
      if (camp.cycles_simulated > 0) rep.activity = camp.mean_activity();
      if (camp.degradation.degraded)
        rep.degradations.push_back(camp.degradation);
      cov = std::move(camp.raw);
    }
    rep.campaign_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rep.coverage = cov.coverage();

    // Feedback coverage needs a per-fault verdict for every feedback-line
    // fault; under a truncated sweep the unsimulated ones have none, so
    // the number is only reported for a complete sweep.
    if (!cs.feedback_nets.empty() && cov.simulated == cov.total) {
      std::size_t fb_total = 0, fb_missed = 0;
      for (const Fault& f : faults) {
        bool on_fb = false;
        for (NetId n : cs.feedback_nets) on_fb = on_fb || (n == f.net);
        if (!on_fb) continue;
        ++fb_total;
        for (const Fault& u : cov.undetected)
          if (u == f) ++fb_missed;
      }
      if (fb_total > 0)
        rep.feedback_coverage =
            1.0 - static_cast<double>(fb_missed) / static_cast<double>(fb_total);
    }
    if (coverage_out != nullptr) *coverage_out = std::move(cov);
  }
  return rep;
}

FlowResult run_flow(const MealyMachine& fsm, const FlowOptions& options) {
  fsm.validate();
  FlowResult res;
  // The flow-level budget, when set, overrides each stage's own budget
  // (the deadline is absolute, so later stages see only what remains).
  OstrOptions ostr_opt = options.ostr;
  if (!options.budget.is_unlimited()) ostr_opt.budget = options.budget;
  // One interner per machine: the OSTR search (and any later partition
  // work on this machine) shares a single partition universe + memo set.
  PartitionStore store(&fsm);
  res.ostr = solve_ostr(fsm, ostr_opt, store);
  res.realization = build_realization(fsm, res.ostr.best.pi, res.ostr.best.tau);
  res.verification = verify_realization(fsm, res.realization);

  const Encoding enc = natural_encoding(fsm.num_states());
  const EncodedFsm encoded = encode_fsm(fsm, enc);

  res.fig1 = measure_structure(
      build_fig1(encoded, options.technology, options.budget),
      options);
  res.fig2 = measure_structure(
      build_fig2(encoded, options.technology, options.budget),
      options);
  res.fig3 = measure_structure(
      build_fig3(encoded, options.technology, options.budget),
      options);
  res.fig4 = measure_structure(
      build_fig4(fsm, res.realization, options.technology,
                 options.budget),
      options);
  return res;
}

}  // namespace stc
