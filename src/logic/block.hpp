#pragma once
// Minimized combinational blocks, and the memo that lets every structure
// built from one encoded machine share its combined block.
//
// Figs. 1-3 all instantiate the same block C (next state plus outputs of
// the encoded machine): Fig. 2 wraps it in a test register and a mux,
// Fig. 3 duplicates it. A BlockMemo, owned by the EncodedFsm through a
// shared_ptr, keeps C's two-level form and its factored network, so the
// six fig1-3 builds of a machine minimize and factor C once. Its lifetime
// is the encoded machine's: there is no process-wide cache, and a fresh
// encode_fsm minimizes again. See DESIGN.md "Block sharing across
// structures".

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "logic/cost.hpp"
#include "logic/factor.hpp"
#include "util/budget.hpp"

namespace stc {

/// Which two-level minimizer prepares the covers.
enum class MinimizerKind { kAuto, kQuineMcCluskey, kEspresso };

/// Stable identifier ("auto", "qm", "espresso") -- spool spec files and
/// the drivers' --minimizer flag round-trip through these.
const char* minimizer_name(MinimizerKind mk);
/// Parse a minimizer_name(); throws Error(kInvalidInput) otherwise.
MinimizerKind parse_minimizer(const std::string& name);

/// One minimized multi-output block. `pla` is set when the cube-calculus
/// multi-output engine ran (products shared across outputs); the per-output
/// covers are always available for reporting and the QM build path;
/// `factored` is set when the block was routed through algebraic
/// extraction (Technology::kMultiLevel).
struct MinimizedBlock {
  std::vector<Cover> covers;
  std::optional<CubeList> pla;
  std::optional<FactoredNetwork> factored;

  /// Two-level cost point (always available).
  LogicCost cost() const { return pla ? pla_cost(*pla) : block_cost(covers); }
  /// Multi-level cost point (only after extraction).
  std::optional<LogicCost> multilevel_cost() const {
    return factored ? std::optional<LogicCost>(factored_cost(*factored))
                    : std::nullopt;
  }
};

/// Thread-safe memo of one block's complete results: the two-level form
/// and the factored network of that form, each keyed by (minimizer, work
/// allowance). The allowance is in the key because a work-limited stage
/// is deterministic in it; a deadline or cancel token is not, but a result
/// that finished is what any deadline would have produced, so it is
/// served to every budget. Only complete results are stored: a stage that
/// reports a Degradation leaves the memo unchanged, so a later caller with
/// a larger budget computes the full-quality result instead of inheriting
/// the truncated one. Concurrent callers that miss the same key both
/// compute (there is no waiting); the first complete result stays.
class BlockMemo {
 public:
  struct Key {
    MinimizerKind minimizer = MinimizerKind::kAuto;
    std::uint64_t work_allowance = UINT64_MAX;  // Budget::work_allowance()

    bool operator<(const Key& o) const {
      return std::make_pair(minimizer, work_allowance) <
             std::make_pair(o.minimizer, o.work_allowance);
    }
  };

  /// How often each stage ran on a miss, and how many lookups were served
  /// from the memo.
  struct Stats {
    std::size_t minimizations = 0;
    std::size_t factorings = 0;
    std::size_t hits = 0;
  };

  /// A stage run: appends its degradations (none = complete) and returns
  /// the result.
  template <typename T>
  using Compute = std::function<T(std::vector<Degradation>*)>;

  /// The two-level block for `key`: the stored one, else `minimize`'s
  /// result (stored when complete). The run's degradations are appended
  /// to `degradations`; a served block appends nothing.
  std::shared_ptr<const MinimizedBlock> two_level(
      const Key& key, const Compute<MinimizedBlock>& minimize,
      std::vector<Degradation>* degradations);

  /// The factored network of the complete two-level block for `key`, as
  /// two_level(). `factor` returns nullopt when the block cannot be
  /// factored; nothing is stored then and nullptr is returned.
  std::shared_ptr<const FactoredNetwork> factored(
      const Key& key, const Compute<std::optional<FactoredNetwork>>& factor,
      std::vector<Degradation>* degradations);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const MinimizedBlock>> two_level_;
  std::map<Key, std::shared_ptr<const FactoredNetwork>> factored_;
  Stats stats_;
};

}  // namespace stc
