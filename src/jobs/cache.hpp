#pragma once
// Content-keyed artifact cache for campaign jobs.
//
// Two levels, each keyed on everything that determines its artifact and
// nothing else (see DESIGN.md "Cache keying and invalidation"):
//
//   machine    name -> { MealyMachine, fingerprint, EncodedFsm }
//              plus lazily the OSTR result / realization / verification
//              (only fig4 jobs pay for the search; a complete search is
//              stored for every caller, one stopped by its node cap for
//              the callers with that cap);
//   structure  (fingerprint, arch, tech) -> built
//              ControllerStructure (espresso + factoring baked in);
//              only complete builds -- one a job's budget truncated is
//              returned to that job and not stored.
//
// Compiled lane programs are not cached: a campaign or fleet run compiles
// its structure's program once and shares it between its own chunks
// (bist/session.hpp CampaignWarmState).
//
// The structure key uses the machine's CONTENT fingerprint, not its name:
// identical machines share entries however they were loaded, and a
// same-named but different machine can never collide. Entries are
// immutable once built (there is no invalidation to get wrong: a new
// machine content is a new key); eviction or a process restart is the
// only flush.
//
// Long-lived (daemon) use: max_entries bounds the structure map with LRU
// eviction of UNPINNED entries -- an entry currently leased by a running
// job (its shared_ptr is held outside the cache) is never evicted. 0 =
// unbounded (the one-shot drivers' default). Eviction counters are
// reported in stats().
//
// Thread-safe: concurrent jobs requesting the same entry serialize on a
// per-entry build mutex -- exactly one builds, the rest wait and count a
// hit (or, when that build failed or was degraded and not stored, build
// again and count a miss). The fig1-3 jobs of one machine also share its
// encoded block memo (logic/block.hpp), so a structure miss reuses C when
// another figure already minimized it. All counters are monotonic; stats()
// may be read while jobs run.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "encoding/encoded_fsm.hpp"
#include "ostr/verify.hpp"
#include "synth/flow.hpp"

namespace stc {

/// Which of the paper's controller structures a job builds.
enum class ArchKind : std::uint8_t { kFig1, kFig2, kFig3, kFig4 };

const char* arch_name(ArchKind arch);
/// Parse "fig1".."fig4"; throws Error(kInvalidInput) otherwise.
ArchKind parse_arch(const std::string& name);

struct JobCacheStats {
  std::size_t machine_hits = 0, machine_misses = 0;
  std::size_t ostr_hits = 0, ostr_misses = 0;
  std::size_t structure_hits = 0, structure_misses = 0;
  /// LRU evictions (bounded caches only; 0 under the unbounded default).
  std::size_t structure_evictions = 0;

  std::size_t hits() const { return machine_hits + ostr_hits + structure_hits; }
  std::size_t misses() const {
    return machine_misses + ostr_misses + structure_misses;
  }
  double hit_rate() const {
    const std::size_t total = hits() + misses();
    return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
  }
};

class JobCache {
 public:
  /// One OSTR search, the realization of its best pair, and that
  /// realization's verification.
  struct OstrArtifacts {
    OstrResult ostr;
    Realization realization;
    VerifyReport verification;
  };

  struct MachineEntry {
    MealyMachine fsm;
    std::uint64_t fingerprint = 0;
    EncodedFsm encoded;  // natural encoding, shared by fig1-fig3 builds
                         // (with its block memo: C is minimized once)

    // OSTR artifacts, built lazily under ostr_mu (fig4 only): a complete
    // search (null until then) and the searches stopped by their node cap,
    // keyed by that cap.
    std::mutex ostr_mu;
    std::shared_ptr<const OstrArtifacts> ostr;
    std::map<std::uint64_t, std::shared_ptr<const OstrArtifacts>> capped_ostr;
  };

  struct StructureEntry {
    ControllerStructure cs;
  };

  /// `max_entries` bounds the cached structures (0 = unbounded).
  explicit JobCache(std::size_t max_entries = 0) : max_entries_(max_entries) {}
  JobCache(const JobCache&) = delete;
  JobCache& operator=(const JobCache&) = delete;

  std::size_t max_entries() const { return max_entries_; }

  /// Load + encode a corpus machine (or any machine via `loader`); cached
  /// by name, fingerprinted on first load. The returned pointer is stable
  /// for the cache's lifetime. `hit` (when given) reports whether a
  /// built entry served the call -- the per-job cache flags of the corpus
  /// report. A call that loads the machine, also after an earlier load
  /// failed, is a miss.
  std::shared_ptr<MachineEntry> machine(
      const std::string& name,
      const std::function<MealyMachine(const std::string&)>& loader =
          [](const std::string& n) { return load_benchmark(n); },
      bool* hit = nullptr);

  /// OSTR + realization + verification for a machine under `options`. A
  /// complete search is stored and served to every later caller, whatever
  /// its options. A search stopped by its node cap (reason
  /// "work-allowance"; the cap is min(max_nodes, work allowance)) is
  /// stored under that cap and served, degradation label and all, to later
  /// callers with the same cap. A search a deadline or a cancel cut short
  /// is returned to this caller only: the next caller searches again.
  std::shared_ptr<const OstrArtifacts> ensure_ostr(MachineEntry& m,
                                                   const OstrOptions& options);

  /// Build (or fetch) one controller structure. `budget` governs the
  /// build; a complete build is cached and returned bit-identically to
  /// every later caller. A build the budget truncated (non-empty
  /// degradations) is returned to this caller only, not stored: the next
  /// caller on the key builds again under its own budget.
  std::shared_ptr<StructureEntry> structure(const std::shared_ptr<MachineEntry>& m,
                                            ArchKind arch, Technology tech,
                                            const OstrOptions& ostr_options,
                                            const Budget& budget,
                                            bool* hit = nullptr);

  JobCacheStats stats() const;

 private:
  struct StructKey {
    std::uint64_t fingerprint;
    ArchKind arch;
    Technology tech;
    bool operator==(const StructKey& o) const {
      return fingerprint == o.fingerprint && arch == o.arch && tech == o.tech;
    }
  };
  struct StructKeyHash {
    std::size_t operator()(const StructKey& k) const;
  };
  template <typename Entry>
  struct Slot {
    std::mutex build_mu;
    // Structure slots: written under build_mu AND mu_, so the builder
    // (build_mu) and evict_locked (mu_) each read them safely.
    bool built = false;
    std::shared_ptr<Entry> value;
    std::uint64_t last_use = 0;  // LRU stamp, updated under mu_
  };

  /// Evict LRU unpinned structures until the map fits max_entries_ (call
  /// with mu_ held).
  void evict_locked();

  mutable std::mutex mu_;  // guards the maps and the counters
  std::size_t max_entries_ = 0;
  std::uint64_t lru_tick_ = 0;
  std::unordered_map<std::string, std::shared_ptr<Slot<MachineEntry>>> machines_;
  std::unordered_map<StructKey, std::shared_ptr<Slot<StructureEntry>>,
                     StructKeyHash>
      structures_;
  JobCacheStats stats_;
};

}  // namespace stc
