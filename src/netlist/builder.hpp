#pragma once
// Structural synthesis of two-level covers into gate netlists, plus the
// standard register/mux building blocks used by the BIST architectures.

#include "encoding/encoded_fsm.hpp"
#include "logic/cover.hpp"
#include "logic/factor.hpp"
#include "netlist/netlist.hpp"

namespace stc {

/// Emit AND-OR logic for `cover`; `var_nets[v]` drives cube variable v.
/// Shares input inverters across cubes. An empty cover yields const 0;
/// the tautology cube yields const 1.
NetId build_sop(Netlist& nl, const Cover& cover, const std::vector<NetId>& var_nets);

/// A register bank: `width` DFFs with optional load-enable-free D inputs.
struct RegisterBank {
  std::vector<NetId> q;  // flip-flop outputs, LSB first
};

/// Create `width` flip-flops named `<name>[k]`; init holds the power-up
/// value (LSB first).
RegisterBank build_register(Netlist& nl, const std::string& name, std::size_t width,
                            std::uint64_t init = 0);

/// 2:1 mux: sel ? a : b.
NetId build_mux(Netlist& nl, NetId sel, NetId a, NetId b);

/// Multi-output PLA: every product term is instantiated once and fans out
/// to the OR of each output whose bit is set in its output part. Input
/// inverters are shared across the whole block. Returns one net per
/// output; outputs with no terms yield const 0, a literal-free term makes
/// its outputs const 1.
std::vector<NetId> build_pla(Netlist& nl, const CubeList& pla,
                             const std::vector<NetId>& var_nets);

/// Multi-level instantiation of a factored network: every intermediate
/// node is built once as AND-OR logic and fans out to each expression
/// referencing it; input inverters are shared across the whole block.
/// Returns one net per output (const 0 for empty output expressions,
/// const 1 for expressions containing the literal-free cube).
std::vector<NetId> build_factored(Netlist& nl, const FactoredNetwork& fn,
                                  const std::vector<NetId>& var_nets);

}  // namespace stc
