#pragma once
// Minimized combinational blocks, and the memo that lets every structure
// built from one encoded machine share its combined block.
//
// Figs. 1-3 all instantiate the same block C (next state plus outputs of
// the encoded machine): Fig. 2 wraps it in a test register and a mux,
// Fig. 3 duplicates it. A BlockMemo, owned by the EncodedFsm through a
// shared_ptr, keeps C's two-level form and its factoring (the per-output
// covers and the network extracted from them), so the six fig1-3 builds
// of a machine minimize and factor C once per work allowance. It stores
// what util/memo.hpp stores: results complete or cut at their allowance.
// Its lifetime is the encoded machine's: there is no process-wide cache,
// and a fresh encode_fsm minimizes again. See DESIGN.md "Block sharing
// across structures".

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "logic/cost.hpp"
#include "logic/factor.hpp"
#include "util/budget.hpp"
#include "util/memo.hpp"

namespace stc {

/// Retired minimizer choice: espresso minimizes every block. Kept, and
/// ignored, only for the positional argument of perfbench/driver.cpp.
enum class MinimizerKind { kAuto };

/// One minimized multi-output block: `pla` is its shared-product
/// two-level form, set on every block the flow builds. `factored` is set
/// when the block was routed through algebraic extraction
/// (Technology::kMultiLevel). `covers` is never filled: it stays only
/// because perfbench/driver.cpp still reads it.
struct MinimizedBlock {
  std::vector<Cover> covers;
  std::optional<CubeList> pla;
  std::optional<FactoredNetwork> factored;

  /// Two-level cost point (std::bad_optional_access without a PLA).
  LogicCost cost() const { return pla_cost(pla.value()); }
  /// Multi-level cost point (only after extraction).
  std::optional<LogicCost> multilevel_cost() const {
    return factored ? std::optional<LogicCost>(factored_cost(*factored))
                    : std::nullopt;
  }
};

/// The multi-level form of one block: the per-output espresso covers
/// extraction started from, and the network it extracted. Fig. 3's
/// second copy factors a prefix of `covers` (its next-state outputs).
struct FactoredBlock {
  std::vector<Cover> covers;
  FactoredNetwork network;
};

/// Thread-safe memo of one block's results: the two-level form and the
/// factoring of that block, each a Memo (util/memo.hpp) keyed by the work
/// allowance. The allowance is in the key because a work-limited stage is
/// deterministic in it, so a result cut at the allowance is stored with its
/// labels and served, labels and all, to the next build under the same
/// allowance. A deadline or cancel token is not in the key: a result that
/// finished is what any deadline would have produced, so it is served to
/// every budget, and a result a deadline or cancel cut short is not stored.
class BlockMemo {
 public:
  /// Budget::work_allowance() of the computing stage.
  using Key = std::uint64_t;

  /// How often each stage ran on a miss, how many lookups were served
  /// from the memo, and how many runs found their result already stored.
  struct Stats {
    std::size_t minimizations = 0;
    std::size_t factorings = 0;
    std::size_t hits = 0;
    std::size_t lost_races = 0;
  };

  /// A stage run: appends its degradations (none = complete) and returns
  /// the result.
  template <typename T>
  using Compute = std::function<T(std::vector<Degradation>*)>;

  /// The two-level block for `key`: the stored one, else `minimize`'s
  /// result. The block's degradations are appended to `degradations`.
  std::shared_ptr<const MinimizedBlock> two_level(
      const Key& key, const Compute<MinimizedBlock>& minimize,
      std::vector<Degradation>* degradations);

  /// The factoring of the block for `key`, as two_level().
  std::shared_ptr<const FactoredBlock> factored(
      const Key& key, const Compute<FactoredBlock>& factor,
      std::vector<Degradation>* degradations);

  Stats stats() const;

 private:
  Memo<Key, MinimizedBlock> two_level_;
  Memo<Key, FactoredBlock> factored_;
};

}  // namespace stc
