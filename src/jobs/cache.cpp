#include "jobs/cache.hpp"

#include "encoding/encoding.hpp"
#include "ostr/ostr.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace stc {

const char* arch_name(ArchKind arch) {
  switch (arch) {
    case ArchKind::kFig1: return "fig1";
    case ArchKind::kFig2: return "fig2";
    case ArchKind::kFig3: return "fig3";
    case ArchKind::kFig4: return "fig4";
  }
  return "?";
}

ArchKind parse_arch(const std::string& name) {
  if (name == "fig1") return ArchKind::kFig1;
  if (name == "fig2") return ArchKind::kFig2;
  if (name == "fig3") return ArchKind::kFig3;
  if (name == "fig4") return ArchKind::kFig4;
  throw Error(ErrorCode::kInvalidInput, "unknown architecture",
              "arch=" + name + "; expected fig1..fig4");
}

std::shared_ptr<const JobCache::MachineEntry> JobCache::machine(
    const std::string& name,
    const std::function<MealyMachine(const std::string&)>& loader, bool* hit) {
  return machines_.get(
      name,
      [&](std::vector<Degradation>*) {
        // Injection site: an armed failure surfaces as Error(kIo) before
        // anything is stored, so a retried job loads cleanly (the recovery
        // behavior the fault suite asserts).
        fault_point("cache.machine.build");
        auto e = std::make_shared<MachineEntry>();
        e->fsm = loader(name);
        e->fsm.validate();
        e->fingerprint = machine_fingerprint(e->fsm);
        e->encoded = encode_fsm(e->fsm, natural_encoding(e->fsm.num_states()));
        return e;
      },
      nullptr, hit);
}

std::shared_ptr<const JobCache::OstrArtifacts> JobCache::ensure_ostr(
    const MachineEntry& m, const OstrOptions& options) {
  return ostr_.get({m.fingerprint, ostr_node_cap(options)},
                   [&](std::vector<Degradation>* degs) {
                     auto a = std::make_shared<OstrArtifacts>();
                     a->ostr = solve_ostr(m.fsm, options);
                     a->realization = build_realization(m.fsm, a->ostr.best.pi,
                                                        a->ostr.best.tau);
                     a->verification = verify_realization(m.fsm, a->realization);
                     if (a->ostr.degradation.degraded)
                       degs->push_back(a->ostr.degradation);
                     return a;
                   });
}

std::shared_ptr<const ControllerStructure> JobCache::structure(
    const std::shared_ptr<const MachineEntry>& m, ArchKind arch, Technology tech,
    const OstrOptions& ostr_options, const Budget& budget, bool* hit) {
  const std::uint64_t cap = arch == ArchKind::kFig4 ? ostr_node_cap(ostr_options) : 0;
  const StructKey key{m->fingerprint, arch, tech, budget.work_allowance(), cap};
  return structures_.get(
      key,
      [&](std::vector<Degradation>* degs) {
        fault_point("cache.structure.build");
        auto cs = std::make_shared<ControllerStructure>();
        switch (arch) {
          case ArchKind::kFig1:
            *cs = build_fig1(m->encoded, tech, budget);
            break;
          case ArchKind::kFig2:
            *cs = build_fig2(m->encoded, tech, budget);
            break;
          case ArchKind::kFig3:
            *cs = build_fig3(m->encoded, tech, budget);
            break;
          case ArchKind::kFig4: {
            const auto search = ensure_ostr(*m, ostr_options);
            *cs = build_fig4(m->fsm, search->realization, tech, budget);
            // A truncated search truncates the structure built on it.
            if (search->ostr.degradation.degraded)
              cs->degradations.insert(cs->degradations.begin(),
                                      search->ostr.degradation);
            break;
          }
        }
        *degs = cs->degradations;
        return cs;
      },
      nullptr, hit);
}

JobCacheStats JobCache::stats() const {
  const MemoStats m = machines_.stats(), o = ostr_.stats(), s = structures_.stats();
  JobCacheStats st;
  st.machine_hits = m.hits;
  st.machine_misses = m.misses;
  st.ostr_hits = o.hits;
  st.ostr_misses = o.misses;
  st.structure_hits = s.hits;
  st.structure_misses = s.misses;
  st.structure_evictions = s.evictions;
  st.lost_races = m.lost_races + o.lost_races + s.lost_races;
  return st;
}

}  // namespace stc
