#include "logic/block.hpp"

#include <iterator>

namespace stc {

namespace {

/// Look up `key`; on a miss run `compute` without the lock held and store
/// its result when it reported no degradation.
template <typename T, typename Compute>
std::shared_ptr<const T> get_or_compute(
    std::mutex& mu, std::map<BlockMemo::Key, std::shared_ptr<const T>>& table,
    std::size_t& runs, std::size_t& hits, const BlockMemo::Key& key,
    const Compute& compute, std::vector<Degradation>* degradations) {
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = table.find(key);
    if (it != table.end()) {
      ++hits;
      return it->second;
    }
    ++runs;
  }
  std::vector<Degradation> degs;
  std::shared_ptr<const T> value = compute(&degs);
  if (degs.empty()) {
    std::lock_guard<std::mutex> lock(mu);
    table.emplace(key, value);  // a racing complete result is identical
  }
  if (degradations)
    degradations->insert(degradations->end(), std::make_move_iterator(degs.begin()),
                         std::make_move_iterator(degs.end()));
  return value;
}

}  // namespace

std::shared_ptr<const MinimizedBlock> BlockMemo::two_level(
    const Key& key, const Compute<MinimizedBlock>& minimize,
    std::vector<Degradation>* degradations) {
  return get_or_compute<MinimizedBlock>(
      mu_, two_level_, stats_.minimizations, stats_.hits, key,
      [&minimize](std::vector<Degradation>* degs) {
        return std::make_shared<const MinimizedBlock>(minimize(degs));
      },
      degradations);
}

std::shared_ptr<const FactoredBlock> BlockMemo::factored(
    const Key& key, const Compute<FactoredBlock>& factor,
    std::vector<Degradation>* degradations) {
  return get_or_compute<FactoredBlock>(
      mu_, factored_, stats_.factorings, stats_.hits, key,
      [&factor](std::vector<Degradation>* degs) {
        return std::make_shared<const FactoredBlock>(factor(degs));
      },
      degradations);
}

BlockMemo::Stats BlockMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace stc
