#pragma once
// Content-keyed artifact cache for campaign jobs.
//
// Three memos (util/memo.hpp), each keyed on everything that determines
// its artifact and nothing else (see DESIGN.md "Cache keying and
// invalidation"):
//
//   machine    name -> { MealyMachine, fingerprint, EncodedFsm };
//   OSTR       (fingerprint, effective node cap) -> OSTR result,
//              realization and verification (only fig4 jobs search);
//   structure  (fingerprint, arch, tech, work allowance, OSTR node cap
//              for fig4) -> built ControllerStructure (espresso +
//              factoring baked in).
//
// Every level stores by one rule: a result complete or cut only at the
// work allowance its key holds (reproducible(), util/budget.hpp) -- a
// fig4 structure built on a search stopped at its node cap is stored and
// served with that label. A result a deadline or a cancel cut short goes
// back to its job only.
//
// Compiled lane programs are not cached: a campaign or fleet run compiles
// its structure's program once and shares it between its own chunks
// (bist/session.hpp CampaignWarmState).
//
// The keys use the machine's CONTENT fingerprint, not its name: identical
// machines share entries however they were loaded, and a same-named but
// different machine can never collide. Entries are immutable once stored
// (there is no invalidation to get wrong: a new machine content is a new
// key); eviction or a process restart is the only flush.
//
// Long-lived (daemon) use: max_entries bounds the structure memo with LRU
// eviction of UNPINNED entries -- an entry currently leased by a running
// job (its shared_ptr is held outside the cache) is never evicted. 0 =
// unbounded (the one-shot drivers' default). Eviction counters are
// reported in stats().
//
// Thread-safe, and no call waits for another's computation: concurrent
// misses on one key each compute, the first storable result is stored and
// handed to all of them. The fig1-3 jobs of one machine share its encoded
// block memo (logic/block.hpp), so a structure miss reuses C when another
// figure already minimized it. All counters are monotonic; stats() may be
// read while jobs run.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "encoding/encoded_fsm.hpp"
#include "ostr/verify.hpp"
#include "synth/flow.hpp"
#include "util/memo.hpp"

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
  /// Misses, over all three levels, that computed a storable result and
  /// found the key already stored by a concurrent miss.
  std::size_t lost_races = 0;

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
  };

  /// `max_entries` bounds the cached structures (0 = unbounded).
  explicit JobCache(std::size_t max_entries = 0) : structures_(max_entries) {}
  JobCache(const JobCache&) = delete;
  JobCache& operator=(const JobCache&) = delete;

  /// Load + encode a corpus machine (or any machine via `loader`); cached
  /// by name, fingerprinted on first load. Concurrent first calls all get
  /// the one stored entry. `hit` (when given) reports whether a stored
  /// entry served the call -- the per-job cache flags of the corpus
  /// report. A call that loads the machine, also after an earlier load
  /// failed, is a miss.
  std::shared_ptr<const MachineEntry> machine(
      const std::string& name,
      const std::function<MealyMachine(const std::string&)>& loader =
          [](const std::string& n) { return load_benchmark(n); },
      bool* hit = nullptr);

  /// OSTR + realization + verification for a machine under `options`,
  /// keyed by ostr_node_cap(options) (the other search options are the
  /// defaults every job uses). A search complete or stopped by that cap
  /// (reason "work-allowance") is stored and served, label and all, to
  /// later callers with the same cap. One a deadline or a cancel cut short
  /// is returned to this caller only: the next caller searches again.
  std::shared_ptr<const OstrArtifacts> ensure_ostr(const MachineEntry& m,
                                                   const OstrOptions& options);

  /// Build (or fetch) one controller structure. `budget` governs the
  /// build; its work allowance (and for fig4 the OSTR node cap) is part of
  /// the key. A build complete or cut only at that allowance is stored and
  /// returned bit-identically to every later caller on the key. A build a
  /// deadline or a cancel truncated is returned to this caller only: the
  /// next caller on the key builds again under its own budget.
  std::shared_ptr<const ControllerStructure> structure(
      const std::shared_ptr<const MachineEntry>& m, ArchKind arch,
      Technology tech, const OstrOptions& ostr_options, const Budget& budget,
      bool* hit = nullptr);

  JobCacheStats stats() const;

 private:
  /// (fingerprint, arch, tech, work allowance, OSTR node cap; 0 below fig4)
  using StructKey =
      std::tuple<std::uint64_t, ArchKind, Technology, std::uint64_t, std::uint64_t>;

  Memo<std::string, MachineEntry> machines_;
  Memo<std::pair<std::uint64_t, std::uint64_t>, OstrArtifacts> ostr_;
  Memo<StructKey, ControllerStructure> structures_;
};

}  // namespace stc
