// Exports a synthesized self-testable controller to structural Verilog and
// BLIF -- the hand-off point to an external simulation or mapping flow.
//
// Run:  ./export_verilog [--machine shiftreg] [--structure fig4]
//                        [--out /tmp/ctrl]   (writes <out>.v and <out>.blif)
// An unknown flag prints the usage and exits 2.

#include <cstdio>
#include <fstream>

#include "benchdata/iwls93.hpp"
#include "netlist/export.hpp"
#include "ostr/ostr.hpp"
#include "synth/flow.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace stc;
  const auto parsed =
      parse_cli(argc, argv,
                "usage: export_verilog [--machine shiftreg] [--structure fig4]\n"
                "                      [--out /tmp/ctrl]\n",
                {"machine", "structure", "out"});
  if (!parsed) return 2;
  const Cli& cli = *parsed;
  const std::string name = cli.get("machine", "shiftreg");
  const std::string structure = cli.get("structure", "fig4");
  const std::string out_base = cli.get("out", "/tmp/" + name + "_" + structure);

  MealyMachine m;
  try {
    m = load_benchmark(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  ControllerStructure cs;
  if (structure == "fig4") {
    const OstrResult ostr = solve_ostr(m);
    const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
    cs = build_fig4(m, real);
    std::printf("OSTR: %zu x %zu blocks, %zu flip-flops\n", ostr.best.s1,
                ostr.best.s2, ostr.best.flipflops);
  } else {
    const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
    if (structure == "fig1") cs = build_fig1(enc);
    else if (structure == "fig2") cs = build_fig2(enc);
    else if (structure == "fig3") cs = build_fig3(enc);
    else {
      std::fprintf(stderr, "unknown --structure %s (fig1..fig4)\n",
                   structure.c_str());
      return 1;
    }
  }

  std::printf("netlist: %s\n", cs.nl.stats().c_str());
  const std::string module = name + "_" + structure;

  {
    std::ofstream f(out_base + ".v");
    f << write_verilog(cs.nl, module);
  }
  {
    std::ofstream f(out_base + ".blif");
    f << write_blif(cs.nl, module);
  }
  std::printf("wrote %s.v and %s.blif\n", out_base.c_str(), out_base.c_str());
  return 0;
}
