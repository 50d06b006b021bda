// Area comparison after state coding and logic minimization: the paper's
// claim that the optimized pipeline structure (Fig. 4) beats doubling
// (Fig. 3) -- and often even the conventional BIST (Fig. 2) -- in hardware
// cost, not just in flip-flop count.

#include <cstdio>

#include "benchdata/iwls93.hpp"
#include "synth/flow.hpp"
#include "util/table.hpp"

int main() {
  using namespace stc;
  const char* machines[] = {"paper_fig5", "shiftreg", "tav",  "dk27",
                            "dk512",      "bbara",    "bbtas", "dk15"};

  AsciiTable table({"machine", "fig1 GE", "fig2 GE", "fig3 GE", "fig4 GE",
                    "fig4/fig3 %", "fig4 FFs", "fig3 FFs"});
  table.set_title(
      "Gate-equivalent area of the controller structures (natural encoding, "
      "espresso)");

  for (const char* name : machines) {
    const MealyMachine m = load_benchmark(name);
    FlowOptions opts;  // no fault sim: area only
    const FlowResult res = run_flow(m, opts);

    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.0f",
                  res.fig3.area_ge > 0 ? 100.0 * res.fig4.area_ge / res.fig3.area_ge
                                       : 0.0);
    table.add_row({name, std::to_string(static_cast<long>(res.fig1.area_ge)),
                   std::to_string(static_cast<long>(res.fig2.area_ge)),
                   std::to_string(static_cast<long>(res.fig3.area_ge)),
                   std::to_string(static_cast<long>(res.fig4.area_ge)), ratio,
                   std::to_string(res.fig4.flipflops),
                   std::to_string(res.fig3.flipflops)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
