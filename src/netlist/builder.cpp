#include "netlist/builder.hpp"

#include <map>
#include <stdexcept>

namespace stc {
namespace {

/// Shared complemented literals: one inverter per distinct source net,
/// scoped to one logic block (every builder below shares inverters
/// across its whole block, never across blocks).
class InverterCache {
 public:
  explicit InverterCache(Netlist& nl) : nl_(nl) {}
  NetId operator()(NetId a) {
    auto it = map_.find(a);
    if (it != map_.end()) return it->second;
    const NetId inv = nl_.add_not(a);
    map_.emplace(a, inv);
    return inv;
  }

 private:
  Netlist& nl_;
  std::map<NetId, NetId> map_;
};

}  // namespace

NetId build_sop(Netlist& nl, const Cover& cover, const std::vector<NetId>& var_nets) {
  if (cover.num_vars() > var_nets.size())
    throw std::invalid_argument("build_sop: not enough variable nets");

  InverterCache inverted(nl);
  std::vector<NetId> terms;
  for (const Cube& cube : cover.cubes()) {
    std::vector<NetId> lits;
    for (std::size_t v = 0; v < cover.num_vars(); ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      if (!(cube.care & bit)) continue;
      lits.push_back((cube.value & bit) ? var_nets[v] : inverted(var_nets[v]));
    }
    if (lits.empty()) return nl.add_const(true);  // tautology cube
    terms.push_back(lits.size() == 1 ? lits[0] : nl.add_and(std::move(lits)));
  }
  if (terms.empty()) return nl.add_const(false);
  return terms.size() == 1 ? terms[0] : nl.add_or(std::move(terms));
}

RegisterBank build_register(Netlist& nl, const std::string& name, std::size_t width,
                            std::uint64_t init) {
  RegisterBank bank;
  bank.q.reserve(width);
  for (std::size_t k = 0; k < width; ++k)
    bank.q.push_back(
        nl.add_dff(name + "[" + std::to_string(k) + "]", (init >> k) & 1));
  return bank;
}

NetId build_mux(Netlist& nl, NetId sel, NetId a, NetId b) {
  const NetId nsel = nl.add_not(sel);
  const NetId ta = nl.add_and({sel, a});
  const NetId tb = nl.add_and({nsel, b});
  return nl.add_or({ta, tb});
}

std::vector<NetId> build_pla(Netlist& nl, const CubeList& pla,
                             const std::vector<NetId>& var_nets) {
  if (pla.num_vars() > var_nets.size())
    throw std::invalid_argument("build_pla: not enough variable nets");

  InverterCache inverted(nl);
  // Outputs driven by a literal-free cube are constant 1; terms feeding
  // only such outputs must not be instantiated (they would dangle).
  std::uint64_t const1_outputs = 0;
  for (const MCube& m : pla.cubes())
    if (m.in.care == 0) const1_outputs |= m.out;

  // AND plane: one term net per cube, shared by every output it drives.
  std::vector<NetId> terms(pla.num_cubes(), kNoNet);
  for (std::size_t i = 0; i < pla.num_cubes(); ++i) {
    const Cube& cube = pla.cubes()[i].in;
    if (cube.care == 0 || !(pla.cubes()[i].out & ~const1_outputs)) continue;
    std::vector<NetId> lits;
    for (std::size_t v = 0; v < pla.num_vars(); ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      if (!(cube.care & bit)) continue;
      lits.push_back((cube.value & bit) ? var_nets[v] : inverted(var_nets[v]));
    }
    terms[i] = lits.size() == 1 ? lits[0] : nl.add_and(std::move(lits));
  }

  // OR plane.
  std::vector<NetId> outs;
  outs.reserve(pla.num_outputs());
  for (std::size_t b = 0; b < pla.num_outputs(); ++b) {
    const std::uint64_t bit = std::uint64_t{1} << b;
    if (const1_outputs & bit) {
      outs.push_back(nl.add_const(true));
      continue;
    }
    std::vector<NetId> ors;
    for (std::size_t i = 0; i < pla.num_cubes(); ++i)
      if (pla.cubes()[i].out & bit) ors.push_back(terms[i]);
    if (ors.empty()) {
      outs.push_back(nl.add_const(false));
    } else {
      outs.push_back(ors.size() == 1 ? ors[0] : nl.add_or(std::move(ors)));
    }
  }
  return outs;
}

std::vector<NetId> build_factored(Netlist& nl, const FactoredNetwork& fn,
                                  const std::vector<NetId>& var_nets) {
  if (fn.num_vars > var_nets.size())
    throw std::invalid_argument("build_factored: not enough variable nets");

  InverterCache inverted(nl);
  std::vector<NetId> node_nets(fn.nodes.size(), kNoNet);
  auto lit_net = [&](LitId l) {
    if (is_node_lit(l, fn.num_vars))
      return node_nets[node_of_lit(l, fn.num_vars)];
    const NetId v = var_nets[l / 2];
    return (l & 1) ? inverted(v) : v;
  };
  // AND-OR logic for one SOP; node references resolve to already-built
  // nets (fn.nodes is topologically ordered). The literal-free cube is
  // detected up front so a const-1 expression never leaves the terms
  // built before it dangling, whatever the cube-list order.
  auto build_sop_expr = [&](const SopExpr& s) {
    for (const FCube& c : s.cubes)
      if (c.empty()) return nl.add_const(true);
    std::vector<NetId> terms;
    terms.reserve(s.cubes.size());
    for (const FCube& c : s.cubes) {
      std::vector<NetId> lits;
      lits.reserve(c.size());
      for (LitId l : c) lits.push_back(lit_net(l));
      terms.push_back(lits.size() == 1 ? lits[0] : nl.add_and(std::move(lits)));
    }
    if (terms.empty()) return nl.add_const(false);
    return terms.size() == 1 ? terms[0] : nl.add_or(std::move(terms));
  };

  for (std::size_t j = 0; j < fn.nodes.size(); ++j)
    node_nets[j] = build_sop_expr(fn.nodes[j]);
  std::vector<NetId> outs;
  outs.reserve(fn.outputs.size());
  for (const SopExpr& s : fn.outputs) outs.push_back(build_sop_expr(s));
  return outs;
}

}  // namespace stc
