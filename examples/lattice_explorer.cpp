// Mm-lattice explorer: prints the algebraic structure the OSTR search
// walks -- basis relations m(rho_{s,t}), the full Mm-lattice, which pairs
// are symmetric, and the closed (SP) partition lattice for comparison with
// classical decomposition theory.
//
// Run:  ./lattice_explorer [--machine paper_fig5] [--max 2000]
// An unknown flag or a non-integer value prints the usage and exits 2.

#include <cstdio>

#include "benchdata/iwls93.hpp"
#include "fsm/minimize.hpp"
#include "partition/lattice.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace stc;
  const auto parsed =
      parse_cli(argc, argv,
                "usage: lattice_explorer [--machine paper_fig5] [--max 2000]\n",
                {"machine"}, {"max"});
  if (!parsed) return 2;
  const Cli& cli = *parsed;
  const std::string name = cli.get("machine", "paper_fig5");
  const std::size_t max_elems = static_cast<std::size_t>(cli.get_int("max", 2000));

  MealyMachine m;
  try {
    m = load_benchmark(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const Partition eps = state_equivalence(m);
  std::printf("machine %s: %zu states, %zu inputs; epsilon = %s\n\n", name.c_str(),
              m.num_states(), m.num_inputs(), eps.to_string().c_str());

  const auto basis = mm_basis(m);
  std::printf("basis relations m(rho_st): %zu distinct (search tree = 2^%zu)\n",
              basis.size(), basis.size());
  for (std::size_t k = 0; k < basis.size() && k < 20; ++k)
    std::printf("  m%zu = %s\n", k, basis[k].to_string().c_str());
  if (basis.size() > 20) std::printf("  ... (%zu more)\n", basis.size() - 20);

  const auto lattice = enumerate_mm_lattice(m, max_elems);
  if (lattice.empty()) {
    std::printf("\nMm-lattice larger than --max %zu elements; not enumerated.\n",
                max_elems);
  } else {
    std::printf("\n%s", describe_mm_lattice(m, lattice).c_str());
    std::size_t sym = 0, usable = 0;
    for (const auto& mm : lattice) {
      if (!is_symmetric_pair(m, mm.pi, mm.tau)) continue;
      ++sym;
      if (mm.pi.meet(mm.tau).refines(eps)) ++usable;
    }
    std::printf("symmetric Mm-pairs: %zu, of which %zu satisfy pi ^ tau <= eps\n",
                sym, usable);
  }

  const auto sps = enumerate_sp_lattice(m, max_elems);
  std::printf("\nclosed (SP) partitions: %zu\n", sps.size());
  for (const auto& p : sps)
    if (!p.is_identity()) std::printf("  %s\n", p.to_string().c_str());
  return 0;
}
