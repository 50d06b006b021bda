#include "bist/architectures.hpp"

#include "logic/espresso_lite.hpp"

namespace stc {

namespace {

/// Primary inputs named in[k], LSB first.
std::vector<NetId> add_functional_inputs(Netlist& nl, std::size_t bits) {
  std::vector<NetId> pi;
  pi.reserve(bits);
  for (std::size_t k = 0; k < bits; ++k)
    pi.push_back(nl.add_input("in[" + std::to_string(k) + "]"));
  return pi;
}

std::vector<std::size_t> dff_indices(const Netlist& nl, const RegisterBank& bank) {
  std::vector<std::size_t> idx;
  for (NetId q : bank.q) {
    for (std::size_t k = 0; k < nl.dffs().size(); ++k)
      if (nl.dffs()[k] == q) idx.push_back(k);
  }
  return idx;
}

/// Instantiate a minimized block: factored DAG when extraction ran,
/// shared-product PLA when the multi-output engine ran, per-cover AND-OR
/// logic otherwise.
std::vector<NetId> build_minimized(Netlist& nl, const MinimizedBlock& mb,
                                   const std::vector<NetId>& vars) {
  if (mb.factored) return build_factored(nl, *mb.factored, vars);
  return mb.pla ? build_pla(nl, *mb.pla, vars) : build_block(nl, mb.covers, vars);
}

/// The one multi-level routing policy (shared by minimize_for, the
/// combined-block memo and fig3's restricted copy): factor a block's
/// per-output espresso covers.
FactoredNetwork factor_block(const std::vector<Cover>& covers, const Budget& budget,
                             std::vector<Degradation>* degradations) {
  Degradation deg;
  FactoredNetwork fn = extract_factored(covers, budget, &deg);
  if (degradations && deg.degraded) degradations->push_back(std::move(deg));
  return fn;
}

/// Accumulate one block into the structure: the two-level cost point
/// always, the factored cost point when extraction ran.
void add_block_cost(ControllerStructure& cs, const MinimizedBlock& mb) {
  cs.logic += mb.cost();
  if (const auto ml = mb.multilevel_cost()) {
    if (!cs.logic_ml) cs.logic_ml = LogicCost{};
    *cs.logic_ml += *ml;
    cs.factored_nodes += mb.factored->num_nodes();
  }
}

/// The next-state sub-block of a combined (next-state, outputs) PLA:
/// keeps the shared products of the first `state_bits` outputs (used for
/// the duplicated copy of C in the fig3 ring).
CubeList restrict_to_low_outputs(const CubeList& pla, std::size_t state_bits) {
  const std::uint64_t mask = state_bits >= 64 ? ~std::uint64_t{0}
                                              : (std::uint64_t{1} << state_bits) - 1;
  CubeList out(pla.num_vars(), state_bits);
  for (const MCube& m : pla.cubes())
    if (m.out & mask) out.add(m.in, m.out & mask);
  return out;
}

/// Combined (next-state low, outputs high) dense tables of an EncodedFsm,
/// matching the output order of EncodedFsm::spec.
std::vector<TruthTable> combined_tables(const EncodedFsm& enc) {
  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
  return tables;
}

/// C of figs 1-3: the combined block of `enc`, minimized (and on the
/// multi-level path factored) through the encoded machine's memo, so the
/// figures share one result per work allowance instead of each
/// recomputing it (one a deadline or cancel cut short is not stored; one
/// cut at the allowance is, with its labels). On the multi-level
/// path `factoring`, when given, receives the memo entry the network came
/// from.
MinimizedBlock combined_block(const EncodedFsm& enc, Technology tech,
                              const Budget& budget,
                              std::vector<Degradation>* degradations,
                              std::shared_ptr<const FactoredBlock>* factoring = nullptr) {
  BlockMemo& memo = *enc.block_memo;
  const BlockMemo::Key key = budget.work_allowance();
  MinimizedBlock mb = *memo.two_level(
      key,
      [&](std::vector<Degradation>* d) {
        return minimize_for(enc.spec, combined_tables(enc), Technology::kTwoLevel,
                            budget, d);
      },
      degradations);
  if (tech == Technology::kMultiLevel) {
    const auto fb = memo.factored(
        key,
        [&](std::vector<Degradation>* d) {
          FactoredBlock out;
          out.covers = per_output_covers(combined_tables(enc), budget, d);
          out.network = factor_block(out.covers, budget, d);
          return out;
        },
        degradations);
    mb.factored = fb->network;
    if (factoring) *factoring = fb;
  }
  return mb;
}

}  // namespace

std::vector<Cover> per_output_covers(const std::vector<TruthTable>& tables,
                                     const Budget& budget,
                                     std::vector<Degradation>* degradations) {
  std::vector<Cover> covers;
  covers.reserve(tables.size());
  for (const auto& tt : tables) {
    Degradation deg;
    covers.push_back(minimize_espresso(tt, budget, &deg));
    if (degradations && deg.degraded) degradations->push_back(std::move(deg));
  }
  return covers;
}

MinimizedBlock minimize_for(const PlaSpec& spec, const std::vector<TruthTable>& tables,
                            Technology tech, const Budget& budget,
                            std::vector<Degradation>* degradations) {
  MinimizedBlock mb;
  if (!tables.empty() && spec.num_outputs == tables.size()) {
    Degradation deg;
    mb.pla = minimize_espresso_mv(spec, budget, &deg);
    if (degradations && deg.degraded) degradations->push_back(std::move(deg));
  } else {
    // No usable spec for this block (e.g. more outputs than the 64-bit
    // output part can carry): per-output, no product sharing.
    mb.covers = per_output_covers(tables, budget, degradations);
  }
  if (tech == Technology::kMultiLevel)
    mb.factored = factor_block(
        mb.pla ? per_output_covers(tables, budget, degradations) : mb.covers, budget,
        degradations);
  return mb;
}

ControllerStructure build_fig1(const EncodedFsm& enc, Technology tech,
                               const Budget& budget) {
  ControllerStructure cs;
  cs.kind = "fig1";
  cs.tech = tech;
  Netlist& nl = cs.nl;

  cs.pi = add_functional_inputs(nl, enc.input_bits);
  RegisterBank r = build_register(nl, "R", enc.state_bits, enc.reset_code);
  cs.reg_a = dff_indices(nl, r);
  cs.feedback_nets = r.q;

  // Variable order of the tables: inputs low, state bits high.
  std::vector<NetId> vars = cs.pi;
  vars.insert(vars.end(), r.q.begin(), r.q.end());

  // One multi-output block for next-state and output bits together, so
  // the minimizer can share product terms between the two.
  const MinimizedBlock mb = combined_block(enc, tech, budget, &cs.degradations);
  add_block_cost(cs, mb);
  const auto nets = build_minimized(nl, mb, vars);
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(r.q[b], nets[b]);
  for (std::size_t b = 0; b < enc.output_bits; ++b) {
    nl.add_output(nets[enc.state_bits + b], "out[" + std::to_string(b) + "]");
    cs.po.push_back(nets[enc.state_bits + b]);
  }
  nl.finalize();
  return cs;
}

ControllerStructure build_fig2(const EncodedFsm& enc, Technology tech,
                               const Budget& budget) {
  ControllerStructure cs;
  cs.kind = "fig2";
  cs.tech = tech;
  Netlist& nl = cs.nl;

  cs.pi = add_functional_inputs(nl, enc.input_bits);
  cs.test_mode = nl.add_input("test_mode");
  RegisterBank r = build_register(nl, "R", enc.state_bits, enc.reset_code);
  RegisterBank t = build_register(nl, "T", enc.state_bits, 0);
  cs.reg_a = dff_indices(nl, r);
  cs.reg_b = dff_indices(nl, t);
  cs.feedback_nets = r.q;

  // Present-state inputs of C: test_mode ? T : R. The mux is in the
  // functional path -- the transparency/bypass delay of the paper.
  std::vector<NetId> state_in;
  state_in.reserve(enc.state_bits);
  for (std::size_t b = 0; b < enc.state_bits; ++b)
    state_in.push_back(build_mux(nl, cs.test_mode, t.q[b], r.q[b]));

  std::vector<NetId> vars = cs.pi;
  vars.insert(vars.end(), state_in.begin(), state_in.end());

  const MinimizedBlock mb = combined_block(enc, tech, budget, &cs.degradations);
  add_block_cost(cs, mb);
  const auto nets = build_minimized(nl, mb, vars);
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(r.q[b], nets[b]);
  // T holds its value in the netlist; the session driver reconfigures it
  // as a PRPG during test (BILBO behavior is not combinational logic).
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(t.q[b], t.q[b]);

  for (std::size_t b = 0; b < enc.output_bits; ++b) {
    nl.add_output(nets[enc.state_bits + b], "out[" + std::to_string(b) + "]");
    cs.po.push_back(nets[enc.state_bits + b]);
  }
  nl.finalize();
  return cs;
}

ControllerStructure build_fig3(const EncodedFsm& enc, Technology tech,
                               const Budget& budget) {
  ControllerStructure cs;
  cs.kind = "fig3";
  cs.tech = tech;
  Netlist& nl = cs.nl;

  cs.pi = add_functional_inputs(nl, enc.input_bits);
  RegisterBank r1 = build_register(nl, "R", enc.state_bits, enc.reset_code);
  RegisterBank r2 = build_register(nl, "R'", enc.state_bits, enc.reset_code);
  cs.reg_a = dff_indices(nl, r1);
  cs.reg_b = dff_indices(nl, r2);

  std::shared_ptr<const FactoredBlock> factoring;
  const MinimizedBlock mb =
      combined_block(enc, tech, budget, &cs.degradations, &factoring);

  // Copy C: reads R, feeds R' (and drives the primary outputs). Copy C':
  // reads R', feeds R -- only the next-state part is duplicated, with the
  // same shared products as copy C. Both registers start equal, so they
  // stay equal in system mode -- same machine as Fig. 1 with no
  // transparency mode.
  std::vector<NetId> vars1 = cs.pi;
  vars1.insert(vars1.end(), r1.q.begin(), r1.q.end());
  add_block_cost(cs, mb);
  const auto nets1 = build_minimized(nl, mb, vars1);
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(r2.q[b], nets1[b]);

  // The duplicated copy is its own (restricted) block, so on the
  // multi-level path it gets its own extraction over just the next-state
  // covers of C rather than inheriting dead output cones.
  std::vector<NetId> vars2 = cs.pi;
  vars2.insert(vars2.end(), r2.q.begin(), r2.q.end());
  MinimizedBlock next_mb;
  if (mb.pla) {
    next_mb.pla = restrict_to_low_outputs(*mb.pla, enc.state_bits);
  } else {
    next_mb.covers.assign(mb.covers.begin(), mb.covers.begin() + enc.state_bits);
  }
  if (factoring) {
    const std::vector<Cover> next_covers(factoring->covers.begin(),
                                         factoring->covers.begin() + enc.state_bits);
    next_mb.factored = factor_block(next_covers, budget, &cs.degradations);
  }
  add_block_cost(cs, next_mb);
  const auto nets2 = build_minimized(nl, next_mb, vars2);
  for (std::size_t b = 0; b < enc.state_bits; ++b) nl.connect_dff(r1.q[b], nets2[b]);

  for (std::size_t b = 0; b < enc.output_bits; ++b) {
    nl.add_output(nets1[enc.state_bits + b], "out[" + std::to_string(b) + "]");
    cs.po.push_back(nets1[enc.state_bits + b]);
  }
  nl.finalize();
  return cs;
}

ControllerStructure build_fig4(const MealyMachine& fsm, const Realization& real,
                               Technology tech, const Budget& budget) {
  ControllerStructure cs;
  cs.kind = "fig4";
  cs.tech = tech;
  Netlist& nl = cs.nl;

  const FactorTables& ft = real.tables;
  const Encoding enc1 = natural_encoding(ft.n1);
  const Encoding enc2 = natural_encoding(ft.n2);
  const std::size_t input_bits = fsm.effective_input_bits();
  const std::size_t output_bits = fsm.effective_output_bits();

  const EncodedFactor f1 =
      encode_factor(ft.delta1, ft.num_inputs, input_bits, enc1, enc2);
  const EncodedFactor f2 =
      encode_factor(ft.delta2, ft.num_inputs, input_bits, enc2, enc1);
  const EncodedLambda lam =
      encode_lambda(ft.lambda, ft.n1, ft.n2, ft.num_inputs, input_bits,
                    output_bits, enc1, enc2);

  cs.pi = add_functional_inputs(nl, input_bits);
  RegisterBank r1 = build_register(
      nl, "R1", enc1.width, enc1.code_of(static_cast<State>(real.pi.block_of(fsm.reset_state()))));
  RegisterBank r2 = build_register(
      nl, "R2", enc2.width, enc2.code_of(static_cast<State>(real.tau.block_of(fsm.reset_state()))));
  cs.reg_a = dff_indices(nl, r1);
  cs.reg_b = dff_indices(nl, r2);

  // C1: (inputs, R1) -> D of R2.
  std::vector<NetId> vars1 = cs.pi;
  vars1.insert(vars1.end(), r1.q.begin(), r1.q.end());
  const MinimizedBlock mb1 = minimize_for(f1.spec, f1.next_state, tech, budget,
                                          &cs.degradations);
  add_block_cost(cs, mb1);
  const auto c1 = build_minimized(nl, mb1, vars1);
  for (std::size_t b = 0; b < enc2.width; ++b) nl.connect_dff(r2.q[b], c1[b]);

  // C2: (inputs, R2) -> D of R1.
  std::vector<NetId> vars2 = cs.pi;
  vars2.insert(vars2.end(), r2.q.begin(), r2.q.end());
  const MinimizedBlock mb2 = minimize_for(f2.spec, f2.next_state, tech, budget,
                                          &cs.degradations);
  add_block_cost(cs, mb2);
  const auto c2 = build_minimized(nl, mb2, vars2);
  for (std::size_t b = 0; b < enc1.width; ++b) nl.connect_dff(r1.q[b], c2[b]);

  // Output function lambda(inputs, R2, R1) -- variable order must match
  // encode_lambda: inputs low, then R2 bits, then R1 bits.
  std::vector<NetId> lvars = cs.pi;
  lvars.insert(lvars.end(), r2.q.begin(), r2.q.end());
  lvars.insert(lvars.end(), r1.q.begin(), r1.q.end());
  const MinimizedBlock mbl = minimize_for(lam.spec, lam.outputs, tech, budget,
                                          &cs.degradations);
  add_block_cost(cs, mbl);
  const auto po_nets = build_minimized(nl, mbl, lvars);
  for (std::size_t b = 0; b < po_nets.size(); ++b) {
    nl.add_output(po_nets[b], "out[" + std::to_string(b) + "]");
    cs.po.push_back(po_nets[b]);
  }
  nl.finalize();
  return cs;
}

}  // namespace stc
