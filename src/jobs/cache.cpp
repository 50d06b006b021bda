#include "jobs/cache.hpp"

#include <algorithm>

#include "encoding/encoding.hpp"
#include "ostr/ostr.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/hash.hpp"

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

std::size_t JobCache::StructKeyHash::operator()(const StructKey& k) const {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, k.fingerprint);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(k.arch));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(k.tech));
  return static_cast<std::size_t>(h);
}

std::shared_ptr<JobCache::MachineEntry> JobCache::machine(
    const std::string& name,
    const std::function<MealyMachine(const std::string&)>& loader, bool* hit) {
  std::shared_ptr<Slot<MachineEntry>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& s = machines_[name];
    if (!s) s = std::make_shared<Slot<MachineEntry>>();
    slot = s;
  }
  std::lock_guard<std::mutex> build(slot->build_mu);
  // Hit or miss is decided under the build mutex, as in structure(): a
  // call that loads the machine again after a failed load is a miss.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++(slot->built ? stats_.machine_hits : stats_.machine_misses);
  }
  if (hit != nullptr) *hit = slot->built;
  if (!slot->built) {
    // Injection site: an armed failure surfaces as Error(kIo) before any
    // state is stored -- the slot stays unbuilt, so a retried job
    // rebuilds cleanly (the recovery behavior the fault suite asserts).
    fault_point("cache.machine.build");
    auto e = std::make_shared<MachineEntry>();
    e->fsm = loader(name);
    e->fsm.validate();
    e->fingerprint = machine_fingerprint(e->fsm);
    e->encoded = encode_fsm(e->fsm, natural_encoding(e->fsm.num_states()));
    slot->value = std::move(e);
    slot->built = true;
  }
  return slot->value;
}

std::shared_ptr<const JobCache::OstrArtifacts> JobCache::ensure_ostr(
    MachineEntry& m, const OstrOptions& options) {
  // The node cap the search runs under (solve_ostr folds the budget's work
  // allowance into max_nodes the same way).
  const std::uint64_t cap =
      std::min<std::uint64_t>(options.max_nodes, options.budget.work_allowance());
  std::lock_guard<std::mutex> lock(m.ostr_mu);
  std::shared_ptr<const OstrArtifacts> stored = m.ostr;
  if (!stored) {
    const auto it = m.capped_ostr.find(cap);
    if (it != m.capped_ostr.end()) stored = it->second;
  }
  if (stored) {
    std::lock_guard<std::mutex> stats_lock(mu_);
    ++stats_.ostr_hits;
    return stored;
  }
  auto a = std::make_shared<OstrArtifacts>();
  a->ostr = solve_ostr(m.fsm, options);
  a->realization = build_realization(m.fsm, a->ostr.best.pi, a->ostr.best.tau);
  a->verification = verify_realization(m.fsm, a->realization);
  // A search stopped by its node cap is deterministic in that cap, so it
  // serves every later job with the same cap (degradation label included).
  // One a deadline or a cancel cut short stays this job's own: stored, it
  // would reach every later fig4 job.
  const Degradation& d = a->ostr.degradation;
  if (!d.degraded) m.ostr = a;
  else if (d.reason == "work-allowance") m.capped_ostr[cap] = a;
  std::lock_guard<std::mutex> stats_lock(mu_);
  ++stats_.ostr_misses;
  return a;
}

std::shared_ptr<JobCache::StructureEntry> JobCache::structure(
    const std::shared_ptr<MachineEntry>& m, ArchKind arch, Technology tech,
    const OstrOptions& ostr_options, const Budget& budget, bool* hit) {
  const StructKey key{m->fingerprint, arch, tech};
  std::shared_ptr<Slot<StructureEntry>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& s = structures_[key];
    if (!s) s = std::make_shared<Slot<StructureEntry>>();
    s->last_use = ++lru_tick_;
    slot = s;
    evict_locked();
  }
  std::lock_guard<std::mutex> build(slot->build_mu);
  // Hit or miss is decided under the build mutex: a job that waited on a
  // build which was not stored builds again, and that is a miss.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++(slot->built ? stats_.structure_hits : stats_.structure_misses);
  }
  if (hit != nullptr) *hit = slot->built;
  if (slot->built) return slot->value;

  fault_point("cache.structure.build");
  auto e = std::make_shared<StructureEntry>();
  switch (arch) {
    case ArchKind::kFig1:
      e->cs = build_fig1(m->encoded, tech, budget);
      break;
    case ArchKind::kFig2:
      e->cs = build_fig2(m->encoded, tech, budget);
      break;
    case ArchKind::kFig3:
      e->cs = build_fig3(m->encoded, tech, budget);
      break;
    case ArchKind::kFig4: {
      const auto search = ensure_ostr(*m, ostr_options);
      e->cs = build_fig4(m->fsm, search->realization, tech, budget);
      // A truncated search truncates the structure built on it.
      if (search->ostr.degradation.degraded)
        e->cs.degradations.insert(e->cs.degradations.begin(),
                                  search->ostr.degradation);
      break;
    }
  }
  // A structure truncated under this job's budget stays this job's own:
  // stored, it would reach every later job on the key, whatever that
  // job's budget. The slot stays unbuilt so the next job builds again.
  if (e->cs.degradations.empty()) {
    std::lock_guard<std::mutex> lock(mu_);  // evict_locked reads the slot under mu_
    slot->value = e;
    slot->built = true;
  }
  return e;
}

void JobCache::evict_locked() {
  if (max_entries_ == 0) return;
  while (structures_.size() > max_entries_) {
    auto sv = structures_.end();
    for (auto it = structures_.begin(); it != structures_.end(); ++it) {
      const auto& slot = it->second;
      // Pinned: a built value leased by a job, or an unbuilt slot a job is
      // building in (an idle unbuilt slot -- its last build was degraded
      // and not stored -- may go).
      if (slot->built ? slot->value.use_count() > 1 : it->second.use_count() > 1)
        continue;
      if (sv == structures_.end() || slot->last_use < sv->second->last_use)
        sv = it;
    }
    if (sv == structures_.end()) break;  // everything left is pinned
    structures_.erase(sv);
    ++stats_.structure_evictions;
  }
}

JobCacheStats JobCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace stc
