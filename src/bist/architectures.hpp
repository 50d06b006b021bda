#pragma once
// The four controller structures of the paper, as gate-level netlists:
//
//  Fig. 1  conventional synthesis: C + single state register R.
//  Fig. 2  conventional BIST: extra test register T and a test-mode mux in
//          the feedback path (the transparency / bypass penalty); during
//          self-test T generates patterns into C while R compresses, so
//          the R -> C feedback lines are NOT exercised (drawback (3)).
//  Fig. 3  doubled structure: two copies of C and two registers in a ring;
//          equals the pipeline structure for the trivial realization.
//  Fig. 4  optimized pipeline structure from a nontrivial OSTR solution:
//          C1 : (I, R1) -> R2,  C2 : (I, R2) -> R1,  lambda(I, R1, R2) -> O.
//
// Every builder returns the netlist plus role maps so the self-test driver
// (bist/session.hpp) can reconfigure registers into PRPG/MISR roles.

#include <optional>

#include "bist/faults.hpp"
#include "encoding/encoded_fsm.hpp"
#include "logic/block.hpp"
#include "logic/cost.hpp"
#include "netlist/builder.hpp"
#include "ostr/realization.hpp"
#include "util/budget.hpp"

namespace stc {

// The builders take a Technology (logic/cost.hpp) selecting the style of
// the combinational blocks:
//   * kTwoLevel   -- flat AND-OR planes (the historical netlists);
//   * kMultiLevel -- algebraic factoring on per-output espresso covers
//     (logic/factor.hpp): intermediate nodes shared via fanout.
// Every block is minimized and factored from its cube-form PlaSpec; no
// build_fig* reads a truth table.
// Both styles implement the encoded machine; they can differ only on its
// don't-cares (unused state codes, padding input patterns), so under legal
// inputs from reset the multi-level netlists are simulation-equivalent to
// the two-level ones (algebraic division is an identity on cube sets).

struct ControllerStructure {
  Netlist nl;
  std::string kind;                 // "fig1" ... "fig4"
  Technology tech = Technology::kTwoLevel;  // style of the built netlist
  std::vector<NetId> pi;            // functional primary inputs (LSB first)
  std::vector<NetId> po;            // functional primary outputs
  NetId test_mode = kNoNet;         // fig2 only
  std::vector<std::size_t> reg_a;   // dff indices: R (fig1/2), R/first copy (fig3), R1 (fig4)
  std::vector<std::size_t> reg_b;   // dff indices: T (fig2), R' (fig3), R2 (fig4)
  std::vector<NetId> feedback_nets; // the R -> C feedback lines (fault target set)
  LogicCost logic;                  // two-level cost of the combinational blocks
                                    // (shared-product PLA cost)
  /// Factored cost point of the same blocks (set on multi-level builds,
  /// where every block is factored, so one build reports both technology
  /// columns of the area tables).
  std::optional<LogicCost> logic_ml;
  std::size_t factored_nodes = 0;   // intermediate nodes across all blocks
  /// Anytime labels of every minimization/factoring stage the build
  /// truncated under its budget (empty = nothing degraded; the job cache
  /// adds the label of a truncated OSTR search to a fig4 build). The netlist
  /// implements the encoded machine exactly in every case -- degradation
  /// only means less optimization, never wrong logic.
  std::vector<Degradation> degradations;
};

/// One espresso cover per output of `spec`, no product sharing: the
/// multi-level factoring input of every block. Output b's cover minimizes
/// the one-output spec made of the ON and DC rows whose output part has
/// bit b; an output with no ON row gets an empty cover. Each output gets
/// its own copy of the budget (the deadline stays absolute across them).
std::vector<Cover> per_output_covers(const PlaSpec& spec, const Budget& budget = {},
                                     std::vector<Degradation>* degradations = nullptr);

/// Minimize one block with the multi-output espresso engine: its
/// shared-product PLA is the two-level form. With Technology::kMultiLevel
/// the block is additionally run through greedy kernel/cube extraction
/// over per_output_covers(spec): a product prime for its own output
/// factors into fewer literals than the PLA's multi-output primes. The
/// budget governs espresso and the extraction; truncations are appended
/// to `degradations` when given. The block implements the spec at any
/// budget.
MinimizedBlock minimize_for(const PlaSpec& spec, Technology tech = Technology::kTwoLevel,
                            const Budget& budget = {},
                            std::vector<Degradation>* degradations = nullptr);

// Every builder accepts an anytime budget shared by all of its
// minimization/factoring stages (the deadline is absolute, so stages
// naturally split what remains); truncations are collected in
// ControllerStructure::degradations. The built netlist is behavior-exact
// at any budget.
//
// Figs. 1-3 take C from the EncodedFsm's block memo (logic/block.hpp):
// the first build for a work allowance minimizes -- and on the
// multi-level path factors -- C, the later ones reuse the complete result.
// A build served from the memo reports no degradation for C. Fig. 3's
// second copy factors the next-state prefix of C's per-output covers.
// Figs. 1-3 throw std::invalid_argument when the EncodedFsm's spec does
// not carry every next-state and output bit (C is built from the spec
// alone).

/// Fig. 1: conventional structure.
ControllerStructure build_fig1(const EncodedFsm& enc,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});

/// Fig. 2: conventional structure + test register + bypass mux.
ControllerStructure build_fig2(const EncodedFsm& enc,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});

/// Fig. 3: doubled registers and combinational logic.
ControllerStructure build_fig3(const EncodedFsm& enc,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});

/// Fig. 4: pipeline structure from a realization; states of each factor
/// are encoded with minimal-width natural codes by default.
ControllerStructure build_fig4(const MealyMachine& fsm, const Realization& real,
                               Technology tech = Technology::kTwoLevel,
                               const Budget& budget = {});

// Forms with the retired, ignored MinimizerKind argument, which
// perfbench/driver.cpp still passes positionally. The tables are ignored
// too: every block is minimized from its spec.
inline MinimizedBlock minimize_for(const PlaSpec& spec, const std::vector<TruthTable>&,
                                   MinimizerKind) { return minimize_for(spec); }
inline ControllerStructure build_fig1(const EncodedFsm& enc, MinimizerKind,
                                      Technology tech) { return build_fig1(enc, tech); }
inline ControllerStructure build_fig2(const EncodedFsm& enc, MinimizerKind,
                                      Technology tech) { return build_fig2(enc, tech); }
inline ControllerStructure build_fig3(const EncodedFsm& enc, MinimizerKind,
                                      Technology tech) { return build_fig3(enc, tech); }
inline ControllerStructure build_fig4(const MealyMachine& fsm, const Realization& real,
                                      MinimizerKind, Technology tech) {
  return build_fig4(fsm, real, tech);
}

}  // namespace stc
