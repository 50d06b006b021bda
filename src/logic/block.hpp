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
#include <vector>

#include "logic/cost.hpp"
#include "logic/factor.hpp"
#include "util/budget.hpp"

namespace stc {

/// Retired minimizer choice: espresso minimizes every block. Kept, and
/// ignored, only for the positional argument of perfbench/driver.cpp.
enum class MinimizerKind { kAuto };

/// One minimized multi-output block: `pla` when the spec carried every
/// output (products shared across outputs), else one `covers` entry per
/// output (blocks of more than 64 outputs). `factored` is set when the
/// block was routed through algebraic extraction (Technology::kMultiLevel).
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
/// and the factored network of that block, each keyed by the work
/// allowance. The allowance is in the key because a work-limited stage
/// is deterministic in it; a deadline or cancel token is not, but a result
/// that finished is what any deadline would have produced, so it is
/// served to every budget. Only complete results are stored: a stage that
/// reports a Degradation leaves the memo unchanged, so a later caller with
/// a larger budget computes the full-quality result instead of inheriting
/// the truncated one. Concurrent callers that miss the same key both
/// compute (there is no waiting); the first complete result stays.
class BlockMemo {
 public:
  /// Budget::work_allowance() of the computing stage.
  using Key = std::uint64_t;

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
