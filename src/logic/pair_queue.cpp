#include "logic/pair_queue.hpp"

namespace stc {

void PairQueue::sift_up(std::size_t i) {
  Node* n = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!above(n, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, n);
}

void PairQueue::sift_down(std::size_t i) {
  Node* n = heap_[i];
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size && above(heap_[child + 1], heap_[child])) ++child;
    if (!above(heap_[child], n)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, n);
}

void PairQueue::push(Node* n) {
  heap_.push_back(n);
  sift_up(heap_.size() - 1);
}

void PairQueue::remove(Node* n) {
  const std::size_t i = n->second.pos;
  Node* last = heap_.back();
  heap_.pop_back();
  n->second.pos = kOut;
  if (last == n) return;
  place(i, last);
  sift_up(i);
  sift_down(last->second.pos);
}

void PairQueue::forget(Node* n) {
  const Key key = n->first;  // erase() must not see a reference into n
  recs_.erase(key);
}

void PairQueue::add(Key key, int delta) {
  Node* n = &*recs_.try_emplace(key).first;
  Rec& r = n->second;
  r.count = static_cast<std::uint32_t>(static_cast<std::int64_t>(r.count) + delta);
  if (r.pos == kTaken) return;  // release() settles it
  if (r.pos == kOut) {
    if (built_ && r.count >= 2) push(n);
    else if (r.count == 0) forget(n);
    return;
  }
  if (r.count < 2) {
    remove(n);
    if (r.count == 0) forget(n);
  } else if (delta > 0) {
    sift_up(r.pos);
  } else if (delta < 0) {
    sift_down(r.pos);
  }
}

std::uint32_t PairQueue::count(Key key) const {
  const auto it = recs_.find(key);
  return it == recs_.end() ? 0 : it->second.count;
}

void PairQueue::build() {
  heap_.clear();
  for (Node& n : recs_)
    if (n.second.count >= 2) {
      n.second.pos = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(&n);
    }
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  built_ = true;
}

std::vector<PairQueue::Key> PairQueue::take(std::size_t k) {
  std::vector<Key> out;
  while (out.size() < k && !heap_.empty()) {
    Node* top = heap_.front();
    remove(top);
    top->second.pos = kTaken;
    taken_.push_back(top);
    out.push_back(top->first);
  }
  return out;
}

void PairQueue::release() {
  for (Node* n : taken_) {
    n->second.pos = kOut;
    if (n->second.count >= 2) push(n);
    else if (n->second.count == 0) forget(n);
  }
  taken_.clear();
}

}  // namespace stc
