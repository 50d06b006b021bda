#pragma once
// Literal-pair priority queue of the greedy cube-divisor search
// (logic/factor.cpp).
//
// Every 2-literal sub-cube (a, b), a < b, of the network being factored
// carries its occurrence count: the number of cubes containing both
// literals. The cube-divisor search grows candidates from the most frequent
// pairs first, so the queue orders pairs by (count desc, pair key desc) and
// holds only pairs that occur at least twice -- a pair inside one cube
// cannot be shared.
//
// The queue is an indexed binary max-heap: each pair owns at most one heap
// slot, and a count change moves that one entry up or down in place. So the
// heap holds exactly one entry per pair with count >= 2 that is not taken,
// whatever the history of increments and decrements, and the pop order is a
// function of the counts alone (keys are unique, the order is total).
//
// A probe take()s the top pairs out of the heap. A taken pair keeps its
// count current but is not returned again until release() puts it back at
// its live count, so one probe never returns a pair twice.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace stc {

class PairQueue {
 public:
  using Key = std::uint64_t;

  /// Change the count of `key` by `delta`. The count must stay >= 0; a
  /// pair whose count reaches 0 (and is not taken) is forgotten.
  void add(Key key, int delta);

  /// Live count of `key` (0 for an unknown pair).
  std::uint32_t count(Key key) const;

  /// Enter every pair with count >= 2 into the heap in one heapify. Before
  /// the first build() the queue only counts, so a bulk registration costs
  /// no heap work; afterwards every add() keeps the heap current.
  void build();

  /// Take up to `k` distinct pairs off the top, best first by (count desc,
  /// key desc). They stay taken until release().
  std::vector<Key> take(std::size_t k);

  /// Put every taken pair back at its live count (or drop it when that
  /// count is below 2).
  void release();

  /// Pairs in the heap: exactly the untaken pairs with count >= 2.
  std::size_t heap_size() const { return heap_.size(); }

 private:
  struct Rec {
    std::uint32_t count = 0;
    std::uint32_t pos = kOut;  // heap index, kOut or kTaken
  };
  using Node = std::pair<const Key, Rec>;  // unordered_map nodes never move

  static constexpr std::uint32_t kOut = UINT32_MAX;
  static constexpr std::uint32_t kTaken = UINT32_MAX - 1;

  /// Does `a` rank above `b`?
  static bool above(const Node* a, const Node* b) {
    if (a->second.count != b->second.count)
      return a->second.count > b->second.count;
    return a->first > b->first;
  }

  void place(std::size_t i, Node* n) {
    heap_[i] = n;
    n->second.pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void push(Node* n);
  void remove(Node* n);  // n must be in the heap; leaves pos == kOut
  void forget(Node* n);  // erase the record of a zero-count pair

  std::unordered_map<Key, Rec> recs_;
  std::vector<Node*> heap_;
  std::vector<Node*> taken_;
  bool built_ = false;
};

}  // namespace stc
