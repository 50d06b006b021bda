#pragma once
// Technology-independent cost model for two-level and factored
// (multi-level) implementations.
//
// Gate-equivalent convention (one GE = one 2-input NAND):
//   * a k-literal AND term costs k-1 GE (2-input tree) and k >= 1,
//   * an m-cube OR costs m-1 GE,
//   * input inverters cost 0.5 GE per *distinct* complemented literal,
//   * a D flip-flop costs 4 GE.
// This matches the granularity at which the paper argues "the combined
// networks C1 and C2 need to implement less state transitions than C".
//
// Every LogicCost is tagged with the technology it measured: two-level
// counts (pla_cost / cover_cost) assume each product is an
// AND of input literals feeding OR planes, which silently undercounts a
// factored network (intermediate nodes fan out, node references are not
// input literals). Mixing the two in one accumulation throws, and the
// factored path has its own entry point (factored_cost) -- there is no
// two-level costing overload for a FactoredNetwork on purpose.

#include <string>
#include <vector>

#include "logic/cubelist.hpp"

namespace stc {

struct FactoredNetwork;  // logic/factor.hpp; only cost.cpp needs the definition

/// Implementation technology: flat AND-OR planes vs an algebraically
/// factored multi-level DAG. Used both as the synthesis knob (which
/// style a netlist is built in — see bist/architectures) and as the tag
/// recording which style a LogicCost measured.
enum class Technology : std::uint8_t { kTwoLevel, kMultiLevel };

/// Parse "two_level" / "multi_level" (the --tech flag of the drivers);
/// throws std::invalid_argument on anything else.
Technology parse_technology(const std::string& name);
const char* technology_name(Technology tech);

struct LogicCost {
  Technology tech = Technology::kTwoLevel;
  std::size_t cubes = 0;
  std::size_t literals = 0;
  double gate_equivalents = 0.0;

  /// Accumulate block costs. A zero-valued accumulator adopts the operand's
  /// technology; accumulating across technologies throws std::logic_error
  /// (a two-level total with factored literals mixed in is meaningless).
  LogicCost& operator+=(const LogicCost& o);
};

/// Cost of one single-output cover.
LogicCost cover_cost(const Cover& cover);

/// Cost of a multi-output PLA with shared product terms: each distinct
/// product's AND tree is counted once regardless of how many outputs it
/// feeds, input inverters are shared across the whole block, and `literals`
/// counts both planes (AND-plane input literals + OR-plane connections).
LogicCost pla_cost(const CubeList& pla);

/// A FactoredNetwork must never take the two-level costing path: the PLA
/// model would miscount every node reference as an input literal. Use
/// factored_cost.
LogicCost pla_cost(const FactoredNetwork&) = delete;

/// Cost of a factored network: `literals` is the factored SOP literal
/// count (node references count one literal each), `cubes` the total
/// product terms over all node and output expressions; GE counts one AND
/// tree per cube, one OR tree per multi-cube expression, and shared input
/// inverters -- intermediate nodes are built once regardless of fanout.
LogicCost factored_cost(const FactoredNetwork& fn);

/// Flip-flop cost in GE.
double flipflop_ge(std::size_t count);

}  // namespace stc
