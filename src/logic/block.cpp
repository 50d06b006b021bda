#include "logic/block.hpp"

namespace stc {

std::shared_ptr<const MinimizedBlock> BlockMemo::two_level(
    const Key& key, const Compute<MinimizedBlock>& minimize,
    std::vector<Degradation>* degradations) {
  return two_level_.get(
      key,
      [&minimize](std::vector<Degradation>* degs) {
        return std::make_shared<const MinimizedBlock>(minimize(degs));
      },
      degradations);
}

std::shared_ptr<const FactoredBlock> BlockMemo::factored(
    const Key& key, const Compute<FactoredBlock>& factor,
    std::vector<Degradation>* degradations) {
  return factored_.get(
      key,
      [&factor](std::vector<Degradation>* degs) {
        return std::make_shared<const FactoredBlock>(factor(degs));
      },
      degradations);
}

BlockMemo::Stats BlockMemo::stats() const {
  const MemoStats two = two_level_.stats(), fact = factored_.stats();
  return {two.misses, fact.misses, two.hits + fact.hits,
          two.lost_races + fact.lost_races};
}

}  // namespace stc
