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

std::size_t JobCache::WarmKeyHash::operator()(const WarmKey& k) const {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, reinterpret_cast<std::uintptr_t>(k.structure));
  h = fnv1a_u64(h, k.misr_width);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<JobCache::MachineEntry> JobCache::machine(
    const std::string& name,
    const std::function<MealyMachine(const std::string&)>& loader, bool* hit) {
  std::shared_ptr<Slot<MachineEntry>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& s = machines_[name];
    if (!s) {
      s = std::make_shared<Slot<MachineEntry>>();
      ++stats_.machine_misses;
      if (hit != nullptr) *hit = false;
    } else {
      ++stats_.machine_hits;
      if (hit != nullptr) *hit = true;
    }
    slot = s;
  }
  std::lock_guard<std::mutex> build(slot->build_mu);
  if (!slot->built) {
    // Injection site: an armed failure surfaces as Error(kIo) before any
    // state is published -- the slot stays unbuilt, so a retried job
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
  std::lock_guard<std::mutex> lock(m.ostr_mu);
  if (m.ostr) {
    std::lock_guard<std::mutex> stats_lock(mu_);
    ++stats_.ostr_hits;
    return m.ostr;
  }
  auto a = std::make_shared<OstrArtifacts>();
  a->ostr = solve_ostr(m.fsm, options);
  a->realization = build_realization(m.fsm, a->ostr.best.pi, a->ostr.best.tau);
  a->verification = verify_realization(m.fsm, a->realization);
  // Like a structure, a search cut short by this job's budget stays this
  // job's own; stored, it would reach every later fig4 job.
  if (!a->ostr.degradation.degraded) m.ostr = a;
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
  // build which was not published builds again, and that is a miss.
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
  // published, it would reach every later job on the key, whatever that
  // job's budget. The slot stays unbuilt so the next job builds again.
  if (e->cs.degradations.empty()) {
    e->published = true;
    std::lock_guard<std::mutex> lock(mu_);  // evict_locked reads the slot under mu_
    slot->value = e;
    slot->built = true;
  }
  return e;
}

std::shared_ptr<CampaignWarmState> JobCache::warm(
    const std::shared_ptr<StructureEntry>& s, std::size_t output_misr_width,
    bool* hit) {
  if (!s->published) {
    // A private structure is freed when its job ends, and its address may
    // then be reused by another structure: a warm entry keyed on it could
    // be served for the wrong netlist. Compile a private warm state.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.warm_misses;
    }
    if (hit != nullptr) *hit = false;
    return make_campaign_warm_state(s->cs, output_misr_width);
  }
  const WarmKey key{s.get(), output_misr_width};
  std::shared_ptr<Slot<CampaignWarmState>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& w = warms_[key];
    if (!w) {
      w = std::make_shared<Slot<CampaignWarmState>>();
      ++stats_.warm_misses;
      if (hit != nullptr) *hit = false;
    } else {
      ++stats_.warm_hits;
      if (hit != nullptr) *hit = true;
    }
    w->last_use = ++lru_tick_;
    slot = w;
    evict_locked();
  }
  std::lock_guard<std::mutex> build(slot->build_mu);
  if (!slot->built) {
    auto w = make_campaign_warm_state(s->cs, output_misr_width);
    // Published under mu_ as well: evict_locked reads built/value under
    // mu_ alone.
    std::lock_guard<std::mutex> lock(mu_);
    slot->value = w;
    slot->built = true;
    all_warms_.push_back(std::move(w));
  }
  return slot->value;
}

void JobCache::evict_locked() {
  if (max_entries_ == 0) return;
  while (structures_.size() + warms_.size() > max_entries_) {
    // Warm entries go first: cheapest to rebuild, and a structure may only
    // leave once nothing compiled points into it. Pinned = value leased
    // outside the cache (use_count beyond our own references: the slot
    // plus, for warms, the all_warms_ stats list).
    auto wv = warms_.end();
    for (auto it = warms_.begin(); it != warms_.end(); ++it) {
      const auto& slot = it->second;
      if (!slot->built || slot->value.use_count() > 2) continue;
      if (wv == warms_.end() || slot->last_use < wv->second->last_use) wv = it;
    }
    if (wv != warms_.end()) {
      // Keep the monotonic scratch counter before the state is destroyed.
      evicted_scratch_reuses_ += campaign_warm_reuses(*wv->second->value);
      all_warms_.erase(std::remove(all_warms_.begin(), all_warms_.end(),
                                   wv->second->value),
                       all_warms_.end());
      warms_.erase(wv);
      ++stats_.warm_evictions;
      continue;
    }
    auto sv = structures_.end();
    for (auto it = structures_.begin(); it != structures_.end(); ++it) {
      const auto& slot = it->second;
      // Pinned: a built value leased by a job, or an unbuilt slot a job is
      // building in (an idle unbuilt slot -- its last build was degraded
      // and not published -- may go).
      if (slot->built ? slot->value.use_count() > 1 : it->second.use_count() > 1)
        continue;
      // A warm entry keyed on this structure still exists (it was pinned,
      // or younger): the compiled program references the structure's
      // netlist, so the structure must stay.
      bool referenced = false;
      for (const auto& [wk, ws] : warms_) {
        (void)ws;
        if (wk.structure == slot->value.get()) {
          referenced = true;
          break;
        }
      }
      if (referenced) continue;
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
  JobCacheStats s = stats_;
  s.scratch_reuses += evicted_scratch_reuses_;
  for (const auto& w : all_warms_) s.scratch_reuses += campaign_warm_reuses(*w);
  return s;
}

}  // namespace stc
