#include "logic/cost.hpp"

#include <stdexcept>

#include "logic/factor.hpp"
#include "util/bitvec.hpp"

namespace stc {

Technology parse_technology(const std::string& name) {
  if (name == "two_level") return Technology::kTwoLevel;
  if (name == "multi_level") return Technology::kMultiLevel;
  throw std::invalid_argument("unknown technology '" + name +
                              "' (expected two_level or multi_level)");
}

const char* technology_name(Technology tech) {
  return tech == Technology::kTwoLevel ? "two_level" : "multi_level";
}

LogicCost& LogicCost::operator+=(const LogicCost& o) {
  const bool empty = cubes == 0 && literals == 0 && gate_equivalents == 0.0;
  if (empty) {
    tech = o.tech;
  } else if (tech != o.tech) {
    throw std::logic_error(
        std::string("LogicCost: accumulating ") + technology_name(o.tech) +
        " cost into a " + technology_name(tech) + " total");
  }
  cubes += o.cubes;
  literals += o.literals;
  gate_equivalents += o.gate_equivalents;
  return *this;
}

LogicCost cover_cost(const Cover& cover) {
  LogicCost c;
  c.cubes = cover.num_cubes();
  c.literals = cover.num_literals();

  std::uint64_t complemented = 0;  // distinct variables used complemented
  double ge = 0.0;
  for (const auto& cube : cover.cubes()) {
    const std::size_t k = cube.num_literals();
    if (k >= 2) ge += static_cast<double>(k - 1);
    complemented |= cube.care & ~cube.value;
  }
  if (c.cubes >= 2) ge += static_cast<double>(c.cubes - 1);
  ge += 0.5 * static_cast<double>(popcount64(complemented));
  c.gate_equivalents = ge;
  return c;
}

LogicCost pla_cost(const CubeList& pla) {
  LogicCost c;
  c.cubes = pla.num_cubes();
  c.literals = pla.num_input_literals() + pla.num_output_literals();

  // Mirror build_pla exactly: outputs driven by a literal-free cube are
  // constant 1, and terms feeding only such outputs are never built.
  std::uint64_t const1_outputs = 0;
  for (const MCube& m : pla.cubes())
    if (m.in.care == 0) const1_outputs |= m.out;

  double ge = 0.0;
  std::uint64_t complemented = 0;
  std::vector<std::size_t> or_terms(pla.num_outputs(), 0);
  for (const MCube& m : pla.cubes()) {
    if (m.in.care == 0 || !(m.out & ~const1_outputs)) continue;
    const std::size_t k = m.in.num_literals();
    if (k >= 2) ge += static_cast<double>(k - 1);
    complemented |= m.in.care & ~m.in.value;
    std::uint64_t rest = m.out & ~const1_outputs;
    while (rest) {
      or_terms[static_cast<std::size_t>(count_trailing_zeros64(rest))] += 1;
      rest &= rest - 1;
    }
  }
  for (std::size_t terms : or_terms)
    if (terms >= 2) ge += static_cast<double>(terms - 1);
  ge += 0.5 * static_cast<double>(popcount64(complemented));
  c.gate_equivalents = ge;
  return c;
}

LogicCost factored_cost(const FactoredNetwork& fn) {
  LogicCost c;
  c.tech = Technology::kMultiLevel;
  c.literals = fn.num_literals();

  double ge = 0.0;
  std::uint64_t complemented = 0;
  auto add_sop = [&](const SopExpr& s) {
    c.cubes += s.num_cubes();
    for (const FCube& cube : s.cubes) {
      if (cube.size() >= 2) ge += static_cast<double>(cube.size() - 1);
      for (LitId l : cube)
        if (!is_node_lit(l, fn.num_vars) && (l & 1))
          complemented |= std::uint64_t{1} << (l / 2);
    }
    if (s.num_cubes() >= 2) ge += static_cast<double>(s.num_cubes() - 1);
  };
  for (const SopExpr& s : fn.nodes) add_sop(s);
  for (const SopExpr& s : fn.outputs) add_sop(s);
  ge += 0.5 * static_cast<double>(popcount64(complemented));
  c.gate_equivalents = ge;
  return c;
}

double flipflop_ge(std::size_t count) { return 4.0 * static_cast<double>(count); }

}  // namespace stc
