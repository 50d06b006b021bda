#pragma once
// End-to-end synthesis flow, following Section 2 of the paper:
//   1. solve OSTR on the specification machine,
//   2. build the Theorem-1 realization from the best symmetric pair,
//   3. state coding + two-level logic minimization,
//   4. emit the four controller structures (Figs. 1-4) as netlists,
//   5. (optionally) run the two-session self-test and fault simulation.

#include <optional>

#include "bist/session.hpp"
#include "ostr/ostr.hpp"
#include "ostr/verify.hpp"

namespace stc {

struct FlowOptions {
  OstrOptions ostr;
  /// Implementation style of the combinational blocks: flat AND-OR planes
  /// or algebraically factored multi-level DAGs. Both are simulation-
  /// equivalent; multi-level builds additionally report the factored cost
  /// point next to the two-level one.
  Technology technology = Technology::kTwoLevel;
  bool with_fault_sim = false;       // fault simulation is the expensive part
  std::size_t bist_cycles = 256;     // per session
  std::size_t functional_cycles = 512;
  /// Options of the event-driven campaign engine used for the BIST
  /// structures (figs. 2-4).
  CampaignOptions campaign;
  /// Whole-flow anytime budget. When set (not unlimited) it is handed to
  /// EVERY governed stage -- the OSTR search, each structure's espresso
  /// and factoring, the fault campaigns and the functional baseline --
  /// overriding their per-stage budgets. The deadline is one absolute
  /// point in time, so stages naturally consume whatever remains of it;
  /// the work allowance applies per stage in that stage's own units.
  /// Whatever the budget, the flow returns valid, behavior-exact netlists
  /// with every truncation labeled in the StructureReport degradations.
  Budget budget;
};

/// Area/delay/testability summary of one structure.
struct StructureReport {
  std::string kind;
  /// Technology the netlist was built in: "two_level", "multi_level", or
  /// "multi_level(partial)" when some block fell back to two-level (the
  /// >64-output per-output-heuristic path cannot be factored).
  std::string technology;
  std::size_t flipflops = 0;
  double area_ge = 0.0;
  std::size_t depth = 0;
  /// Two-level cost of the combinational blocks: shared-product PLA
  /// numbers (each product counted once across all the outputs it feeds).
  LogicCost logic;
  /// Factored cost point of the same blocks (multi-level builds report
  /// both technology columns from one run).
  std::optional<LogicCost> logic_ml;
  std::size_t factored_nodes = 0;
  // Fault-simulation results (only when FlowOptions::with_fault_sim):
  std::optional<double> coverage;            // all single stuck-at faults
  std::optional<double> feedback_coverage;   // faults on R -> C lines only
  std::size_t total_faults = 0;
  /// Fault-simulation wall time: the campaign for fig2-4, the functional
  /// baseline alone for fig1. `activity` is the campaign's mean per-cycle
  /// activity ratio — the paper-table drivers double as the perf harness.
  double campaign_seconds = 0.0;
  std::optional<double> activity;
  /// Anytime labels: every stage of this structure's build or measurement
  /// that truncated work under its budget (empty = nothing degraded).
  std::vector<Degradation> degradations;
};

struct FlowResult {
  OstrResult ostr;
  Realization realization;    // from the best OSTR solution
  VerifyReport verification;  // realization correctness
  StructureReport fig1, fig2, fig3, fig4;
};

/// Run the full flow. The machine must be completely specified.
FlowResult run_flow(const MealyMachine& fsm, const FlowOptions& options = {});

/// Build + measure one structure in isolation (used by the area/coverage
/// benches to avoid re-running OSTR). When `coverage_out` is non-null and
/// fault simulation ran, it receives the full per-fault CoverageResult
/// (the orchestrator's determinism tests compare these across job counts).
StructureReport measure_structure(const ControllerStructure& cs,
                                  const FlowOptions& options,
                                  CoverageResult* coverage_out = nullptr);

}  // namespace stc
