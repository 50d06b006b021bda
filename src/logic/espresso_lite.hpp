#pragma once
// Heuristic two-level minimization in the espresso style:
// EXPAND / IRREDUNDANT / REDUCE iterated to a fixpoint on cover cost,
// running entirely on the cube calculus (logic/cubelist.hpp).
//
// Unlike the original dense version, nothing here enumerates minterms:
// the OFF set is a *cover* obtained by unate-recursive complement of
// ON u DC, EXPAND validity is a cube-vs-cover disjointness test, and
// IRREDUNDANT / REDUCE are tautology / sharp computations on cofactors.
// The minimizer is multi-output: the output part of each cube is treated
// espresso-style, so a product term shared by several next-state and
// output bits is derived (and later instantiated in the netlist) once.
//
// Not the full espresso algorithm (no MAXIMAL_REDUCE, no LASTGASP), but
// exact on the containment invariants: the result always implements the
// specification. This is the flow's only minimizer: every block's
// two-level form is a minimize_espresso_mv PLA, and the multi-level path
// factors one minimize_espresso_mv cover per output, each minimized from
// the block's one-output sub-spec (per_output_covers in
// bist/architectures.hpp). QM (logic/qm.hpp) is kept only as the exact
// oracle of the tests.

#include "logic/cubelist.hpp"
#include "util/budget.hpp"

namespace stc {

/// Multi-output minimization of `spec`. The initial cover is the ON cube
/// list with identical input parts merged; the result implements every
/// output (ON covered, OFF avoided) by construction.
///
/// Anytime governance: one work unit of `budget` is one
/// EXPAND/IRREDUNDANT/REDUCE round; the deadline and the cancel token are
/// additionally polled with a strided check per cube inside EXPAND and
/// between OFF-cover complements. The valid-partial-result invariant: the
/// cover is a correct implementation of the spec at EVERY stopping point
/// (the initial merged ON cover is valid, each individual cube expansion
/// preserves validity, and IRREDUNDANT/REDUCE run only at round
/// boundaries), so any budget -- including zero -- yields a cover that
/// implements the spec. When `degradation` is non-null it is filled with
/// what, if anything, was truncated.
CubeList minimize_espresso_mv(const PlaSpec& spec, const Budget& budget = {},
                              Degradation* degradation = nullptr);

/// Single-output wrapper over the multi-output engine for a dense table,
/// with the same budget semantics. Builds its spec with
/// PlaSpec::from_tables (2^n minterms), so it serves small tables and the
/// tests; the flow minimizes every block from its cube-form spec.
Cover minimize_espresso(const TruthTable& tt, const Budget& budget = {},
                        Degradation* degradation = nullptr);

/// Legacy helper kept for differential tests: greedily expand `cube`
/// against an explicit OFF minterm list (drop literals while no OFF
/// minterm is swallowed). Deterministic order: variables tried LSB first,
/// bounded by the function's arity `num_vars`.
Cube expand_against_off(const Cube& cube, const std::vector<Minterm>& off_minterms,
                        std::size_t num_vars);

}  // namespace stc
