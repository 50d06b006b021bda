#include "netlist/eval64.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace stc {

namespace {

/// Per-product term-slot lists in one flat pool: list p is
/// pool[begin[p], begin[p] + size[p]).
struct TermLists {
  std::vector<std::uint16_t> pool;
  std::vector<std::uint32_t> begin, size;
  std::uint16_t* list(std::size_t p) { return pool.data() + begin[p]; }
  const std::uint16_t* list(std::size_t p) const { return pool.data() + begin[p]; }
};

std::uint32_t pair_key(std::uint16_t a, std::uint16_t b) {
  return (static_cast<std::uint32_t>(a) << 16) | b;
}

/// Open-addressing map from a term pair to the number of lists that fold
/// it this round and to its shared AND node, if any (linear probing over a
/// power-of-two table kept at most half full). Counts carry the round
/// they were made in, so a new round needs no clearing pass.
class PairTable {
 public:
  static constexpr std::uint32_t kNoNode = UINT32_MAX;
  struct Entry {
    std::uint32_t key = 0;
    std::uint32_t round = 0;  // 0: empty slot
    std::uint32_t count = 0;  // lists folding this pair in `round`
    std::uint32_t node = kNoNode;
  };

  /// The entry of `key`, inserted if absent, with its count reset when it
  /// was last counted in an earlier round (round >= 1).
  Entry& at(std::uint32_t key, std::uint32_t round) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    Entry& e = slots_[find(key)];
    if (e.round == 0) {
      e.key = key;
      ++used_;
    }
    if (e.round != round) {
      e.round = round;
      e.count = 0;
    }
    return e;
  }

 private:
  std::size_t find(std::uint32_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (key * std::uint64_t{0x9E3779B97F4A7C15}) >> 32 & mask;
    while (slots_[i].round != 0 && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }
  void grow() {
    std::vector<Entry> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Entry& e : old)
      if (e.round != 0) slots_[find(e.key)] = e;
  }

  std::vector<Entry> slots_;
  std::size_t used_ = 0;
};

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& nl, unsigned lane_words) {
  if (!nl.finalized()) throw std::logic_error("CompiledNetlist: finalize() not called");
  if (!lane_words_supported(lane_words))
    throw std::invalid_argument(
        "CompiledNetlist: lane_words must be 1, 4 or 8 (64, 256 or 512 "
        "lanes); got " +
        std::to_string(lane_words));
  lane_words_ = lane_words;
  num_nets_ = nl.num_nets();
  inputs_ = nl.inputs();
  dffs_ = nl.dffs();
  dff_d_.reserve(dffs_.size());
  for (NetId q : dffs_) dff_d_.push_back(nl.gate(q).fanins[0]);

  const unsigned W = lane_words_;
  init_.assign(num_nets_ * W, 0);
  for (NetId id = 0; id < num_nets_; ++id)
    if (nl.gate(id).type == GateType::kConst1)
      for (unsigned w = 0; w < W; ++w) init_[id * W + w] = ~std::uint64_t{0};

  const auto& order = nl.topo_order();
  ops_.reserve(order.size());
  for (NetId id : order) {
    const Gate& g = nl.gate(id);
    Op op;
    op.type = g.type;
    op.out = id;
    op.fanin_begin = static_cast<std::uint32_t>(fanins_.size());
    op.fanin_count = static_cast<std::uint32_t>(g.fanins.size());
    fanins_.insert(fanins_.end(), g.fanins.begin(), g.fanins.end());
    ops_.push_back(op);
  }

  and_mask_.assign(num_nets_ * W, ~std::uint64_t{0});
  or_mask_.assign(num_nets_ * W, 0);

  // --- event-scheduler compile products -------------------------------------
  // Net levels: sources (inputs/DFF-q/consts) are level 0; an op's output is
  // one past its deepest fanin. The topo order guarantees fanin levels are
  // final when an op is reached.
  std::vector<std::uint32_t> net_level(num_nets_, 0);
  op_of_net_.assign(num_nets_, kNoOp);
  op_level_.assign(ops_.size(), 0);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    std::uint32_t lvl = 0;
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      lvl = std::max(lvl, net_level[fanins_[op.fanin_begin + k]]);
    ++lvl;
    net_level[op.out] = lvl;
    op_level_[i] = lvl - 1;  // bucket levels are 0-based over ops
    op_of_net_[op.out] = static_cast<std::uint32_t>(i);
    num_levels_ = std::max(num_levels_, lvl);
  }

  // Bucket layout: segment the scheduled-op array by level, with capacity
  // equal to the op count of each level (an op is scheduled at most once
  // per cycle thanks to the epoch stamps, so the segments cannot overflow).
  std::vector<std::uint32_t> per_level(num_levels_, 0);
  for (std::uint32_t lvl : op_level_) ++per_level[lvl];
  level_base_.assign(num_levels_ + 1, 0);
  for (std::uint32_t l = 0; l < num_levels_; ++l)
    level_base_[l + 1] = level_base_[l] + per_level[l];

  // Dense PLA-product sweep. Two-level structures put thousands of wide AND
  // products directly behind the literal nets, and pseudo-random BIST
  // stimulus toggles about half of those literals every cycle -- so
  // per-edge event scheduling would wake nearly every product anyway,
  // paying pointer-chasing costs for nothing. Instead, the products are
  // compiled into one contiguous uint16 index stream evaluated sequentially
  // between two halves of the level sweep: CSR levels [0, Ls) run first,
  // then the dense sweep, then levels [Ls, end). Literal-only products are
  // grouped by fanin count (fixed inner trip counts, no mispredicted
  // exits), literal-shaped XOR planes follow (parity-heavy netlists would
  // otherwise fall back to CSR cone evaluation), then product-reading
  // chains in topo order, and the whole sweep is skipped on cycles where
  // no product input changed. Requires net ids to fit uint16.
  //
  // A product is dense at boundary Ls when each fanin is either a
  // non-dense net of level <= Ls (a literal: final once levels [0, Ls)
  // have run) or an earlier dense product (AND only: XOR planes have no
  // chained path). Exactness needs one more rule: no non-dense op below
  // Ls may read a dense product (it would run before the sweep and read a
  // stale word), so such a product is demoted back to CSR -- and, now
  // swept below Ls itself, demotes the dense products it reads in turn.
  // Both rules reduce to two per-product levels computed in one pass each:
  //   need[i]: the lowest Ls at which every fanin is final -- a literal's
  //            net level, or a chainable product's own need (below its
  //            net level, so it is dense or a literal at any Ls >= need);
  //   keep[i]: the highest Ls that demotion leaves it dense at -- the
  //            op level of each never-dense reader, or a product reader's
  //            own keep (reverse topo order; the demotion fixpoint).
  // Product i is dense iff need[i] <= Ls <= keep[i]; Ls is the boundary
  // that admits the most products (ties to the lowest), found with one
  // difference array over the levels.
  dense_.assign(ops_.size(), 0);
  is_dense_input_.assign(num_nets_, 0);
  std::vector<std::uint32_t> main_ops, xor_ops, chain_ops;  // topo order
  if (num_nets_ <= UINT16_MAX + 1) {
    constexpr std::uint32_t kNever = UINT32_MAX;
    constexpr std::uint32_t kProduct = 1u << 31;  // net driven by a product
    // Per net: the boundary a reader waits for through it (its need when a
    // product drives it, else its level), tagged with kProduct.
    std::vector<std::uint32_t> wait(net_level.begin(), net_level.end());
    std::vector<std::uint32_t> need(ops_.size(), kNever);
    std::vector<std::uint8_t> reads_product(ops_.size(), 0);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if ((op.type != GateType::kAnd && op.type != GateType::kXor) ||
          op.fanin_count < 2)
        continue;
      std::uint32_t n = 1;  // boundaries range over levels 1..num_levels_
      std::uint32_t tags = 0;
      for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
        const std::uint32_t w = wait[fanins_[op.fanin_begin + k]];
        n = std::max(n, w & ~kProduct);
        tags |= w;
      }
      reads_product[i] = (tags & kProduct) != 0;
      if (reads_product[i] && op.type == GateType::kXor) continue;
      need[i] = n;
      wait[op.out] = n | kProduct;
    }
    // Per net: the highest boundary its readers leave a driving product
    // dense at (reverse topo order visits every reader before the driver).
    std::vector<std::uint32_t> keep(num_nets_, num_levels_);
    for (std::size_t i = ops_.size(); i-- > 0;) {
      const Op& op = ops_[i];
      const std::uint32_t bound = need[i] != kNever ? keep[op.out] : op_level_[i];
      for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
        std::uint32_t& kf = keep[fanins_[op.fanin_begin + k]];
        kf = std::min(kf, bound);
      }
    }
    std::vector<std::int64_t> delta(num_levels_ + 2, 0);
    for (std::size_t i = 0; i < ops_.size(); ++i)
      if (need[i] != kNever) {  // keep >= net level > need: never empty
        ++delta[need[i]];
        --delta[keep[ops_[i].out] + 1];
      }
    std::int64_t admitted = 0, best = -1;
    for (std::uint32_t l = 1; l <= num_levels_; ++l) {
      admitted += delta[l];
      if (admitted > best) {
        best = admitted;
        boundary_ = l;
      }
    }
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (need[i] > boundary_ || keep[op.out] < boundary_) continue;
      dense_[i] = 1;
      // A product reading a dense product takes the chained (values[]-
      // reading) path, which runs after the producer's commit: as a slab
      // literal it would AND the term word seeded before that commit.
      bool chained = false;
      for (std::uint32_t k = 0; reads_product[i] && k < op.fanin_count; ++k) {
        const std::uint32_t src = op_of_net_[fanins_[op.fanin_begin + k]];
        chained |= src != kNoOp && dense_[src];
      }
      if (op.type == GateType::kXor)
        xor_ops.push_back(static_cast<std::uint32_t>(i));
      else
        (chained ? chain_ops : main_ops).push_back(static_cast<std::uint32_t>(i));
    }
  }
  num_xor_ops_ = xor_ops.size();
  // Literal slab: one term slot per distinct net read by a literal-only
  // product or XOR plane, ordered by descending read count (frequent
  // literals share low slots, which maximizes node reuse below).
  {
    std::vector<std::uint32_t> reads(num_nets_, 0);
    for (const auto* list : {&main_ops, &xor_ops})
      for (std::uint32_t op_idx : *list) {
        const Op& op = ops_[op_idx];
        for (std::uint32_t k = 0; k < op.fanin_count; ++k)
          ++reads[fanins_[op.fanin_begin + k]];
      }
    for (NetId n = 0; n < num_nets_; ++n)
      if (reads[n] > 0) slab_net_.push_back(n);
    // std::sort with an explicit NetId tie-break (slab_net_ starts in
    // ascending NetId order, so this matches what a stable sort would
    // produce without the temporary buffer one allocates).
    std::sort(slab_net_.begin(), slab_net_.end(), [&](NetId a, NetId b) {
      return reads[a] != reads[b] ? reads[a] > reads[b] : a < b;
    });
  }
  std::vector<std::uint16_t> slot_of(num_nets_, 0);
  for (std::size_t t = 0; t < slab_net_.size(); ++t)
    slot_of[slab_net_[t]] = static_cast<std::uint16_t>(t);

  // Term-slot lists, one per product, in a flat pool.
  const auto slot_lists = [&](const std::vector<std::uint32_t>& op_list) {
    TermLists t;
    for (std::uint32_t op_idx : op_list) {
      const Op& op = ops_[op_idx];
      t.begin.push_back(static_cast<std::uint32_t>(t.pool.size()));
      t.size.push_back(op.fanin_count);
      for (std::uint32_t k = 0; k < op.fanin_count; ++k)
        t.pool.push_back(slot_of[fanins_[op.fanin_begin + k]]);
    }
    return t;
  };

  // Factor the AND products through shared AND nodes: sort each product's
  // term list, fold consecutive term pairs into deduplicated (a & b) nodes,
  // and repeat until the lists stop shrinking or the id space / node budget
  // is exhausted. Exact by associativity: internal nodes are not nets, so
  // they never carry fault masks. (XOR planes read raw slab slots only --
  // the node table is AND-combined.)
  TermLists terms = slot_lists(main_ops);
  for (std::size_t p = 0; p < terms.size.size(); ++p)
    std::sort(terms.list(p), terms.list(p) + terms.size[p]);
  {
    const std::size_t kNodeBudget = 8192;  // term table stays cache-resident
    PairTable pairs;
    bool shrunk = true;
    for (std::uint32_t round = 1; shrunk; ++round) {
      shrunk = false;
      // Only pairs ANDed by at least two products become nodes; a node
      // with a single reader would move work around instead of removing
      // it (same AND count, worse locality).
      for (std::size_t p = 0; p < terms.size.size(); ++p) {
        const std::uint16_t* l = terms.list(p);
        for (std::uint32_t i = 0; i + 1 < terms.size[p]; i += 2)
          ++pairs.at(pair_key(l[i], l[i + 1]), round).count;
      }
      // Fold in place: a pair shrinks to one id, so writes never pass the
      // reads.
      for (std::size_t p = 0; p < terms.size.size(); ++p) {
        std::uint16_t* l = terms.list(p);
        const std::uint32_t len = terms.size[p];
        std::uint32_t out = 0;
        for (std::uint32_t i = 0; i < len; i += 2) {
          if (i + 1 == len) {
            l[out++] = l[i];
            break;
          }
          const std::uint16_t a = l[i], b = l[i + 1];
          PairTable::Entry& e = pairs.at(pair_key(a, b), round);
          if (e.node == PairTable::kNoNode) {
            if (e.count < 2 || node_a_.size() >= kNodeBudget ||
                slab_net_.size() + node_a_.size() > UINT16_MAX) {
              l[out++] = a;  // unshared or over budget: keep both
              l[out++] = b;
              continue;
            }
            e.node = static_cast<std::uint32_t>(slab_net_.size() + node_a_.size());
            node_a_.push_back(a);
            node_b_.push_back(b);
          }
          l[out++] = static_cast<std::uint16_t>(e.node);
          shrunk = true;
        }
        terms.size[p] = out;
      }
    }
  }

  // Emit products grouped by final term count (sequential stream per group).
  const auto emit_groups = [&](const std::vector<std::uint32_t>& op_list,
                               const TermLists& lists,
                               std::vector<DenseGroup>& groups) {
    const std::vector<std::uint32_t>& size = lists.size;
    std::vector<std::uint32_t> order(op_list.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = static_cast<std::uint32_t>(p);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return size[a] != size[b] ? size[a] < size[b] : a < b;
    });
    for (std::size_t i = 0; i < order.size();) {
      const std::uint32_t width = size[order[i]];
      std::size_t j = i;
      while (j < order.size() && size[order[j]] == width) {
        dense_out_.push_back(ops_[op_list[order[j]]].out);
        const std::uint16_t* l = lists.list(order[j]);
        dense_prog_.insert(dense_prog_.end(), l, l + width);
        ++j;
      }
      groups.push_back({static_cast<std::uint32_t>(j - i), width});
      i = j;
    }
  };
  emit_groups(main_ops, terms, dense_groups_);
  emit_groups(xor_ops, slot_lists(xor_ops), xor_groups_);
  for (NetId n : slab_net_) is_dense_input_[n] = 1;
  // Chained products read values[] directly: their stream entries are net
  // ids, not term slots.
  for (std::uint32_t op_idx : chain_ops) {
    const Op& op = ops_[op_idx];
    dense_out_.push_back(op.out);
    dense_chain_width_.push_back(op.fanin_count);
    for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
      const NetId f = fanins_[op.fanin_begin + k];
      dense_prog_.push_back(static_cast<std::uint16_t>(f));
      is_dense_input_[f] = 1;
    }
  }

  // Sparse ORs: wide ORs (PLA output planes) re-evaluate over their
  // currently-nonzero fanins only. The active sets live in the scratch;
  // here we compile the per-edge tables that let a fanin's zero/nonzero
  // transition update its reader's set in O(1) at commit time.
  sparse_or_of_op_.assign(ops_.size(), kNoOp);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    if (op.type != GateType::kOr || op.fanin_count < kSparseOrMinFanins) continue;
    sparse_or_of_op_[i] = static_cast<std::uint32_t>(or_op_.size());
    or_op_.push_back(static_cast<std::uint32_t>(i));
    or_base_.push_back(static_cast<std::uint32_t>(edge_net_.size()));
    for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
      edge_net_.push_back(fanins_[op.fanin_begin + k]);
      edge_or_.push_back(static_cast<std::uint32_t>(or_op_.size() - 1));
    }
  }
  or_base_.push_back(static_cast<std::uint32_t>(edge_net_.size()));
  sor_offset_.assign(num_nets_ + 1, 0);
  for (const NetId n : edge_net_) ++sor_offset_[n + 1];
  for (std::size_t n = 0; n < num_nets_; ++n) sor_offset_[n + 1] += sor_offset_[n];
  sor_edge_.resize(edge_net_.size());
  {
    std::vector<std::uint32_t> cur(sor_offset_.begin(), sor_offset_.end() - 1);
    for (std::size_t e = 0; e < edge_net_.size(); ++e)
      sor_edge_[cur[edge_net_[e]]++] = static_cast<std::uint32_t>(e);
  }

  // CSR fanout graph: for every net, the readers not covered by the dense
  // sweep or the sparse-OR sets.
  const auto in_csr = [&](std::size_t i) {
    return !dense_[i] && sparse_or_of_op_[i] == kNoOp;
  };
  fanout_offset_.assign(num_nets_ + 1, 0);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (!in_csr(i)) continue;
    const Op& op = ops_[i];
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      ++fanout_offset_[fanins_[op.fanin_begin + k] + 1];
  }
  for (std::size_t n = 0; n < num_nets_; ++n)
    fanout_offset_[n + 1] += fanout_offset_[n];
  fanout_pool_.resize(fanout_offset_[num_nets_]);
  std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                    fanout_offset_.end() - 1);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (!in_csr(i)) continue;
    const Op& op = ops_[i];
    for (std::uint32_t k = 0; k < op.fanin_count; ++k)
      fanout_pool_[cursor[fanins_[op.fanin_begin + k]]++] =
          static_cast<std::uint32_t>(i);
  }
}

void CompiledNetlist::set_faults(const std::vector<LaneFault>& faults) {
  clear_faults();
  const unsigned W = lane_words_;
  // One deterministic allocation on the first batch (a no-op afterwards):
  // keeps campaign heap traffic invariant in the lane width, where growth
  // by doubling would take one extra step for the wider batches.
  dirty_.reserve(num_lanes() - 1);
  for (const LaneFault& f : faults) {
    if (f.net >= num_nets_)
      throw std::out_of_range("set_faults: bad net " + std::to_string(f.net) +
                              " (netlist has " + std::to_string(num_nets_) +
                              " nets)");
    if (f.lane == 0 || f.lane >= num_lanes())
      throw std::invalid_argument("set_faults: lane must be in 1.." +
                                  std::to_string(num_lanes() - 1) + " (net " +
                                  std::to_string(f.net) + " requested lane " +
                                  std::to_string(f.lane) + ")");
    const std::size_t word = f.net * W + (f.lane >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (f.lane & 63);
    if (!lanes_dirty(f.net)) dirty_.push_back(f.net);
    if (f.stuck_value)
      or_mask_[word] |= bit;
    else
      and_mask_[word] &= ~bit;
  }
  if (!faults.empty()) ++faults_version_;
}

bool CompiledNetlist::lanes_dirty(NetId net) const {
  const unsigned W = lane_words_;
  for (unsigned w = 0; w < W; ++w)
    if (and_mask_[net * W + w] != ~std::uint64_t{0} || or_mask_[net * W + w] != 0)
      return true;
  return false;
}

void CompiledNetlist::clear_faults() {
  if (dirty_.empty()) return;
  const unsigned W = lane_words_;
  for (NetId n : dirty_)
    for (unsigned w = 0; w < W; ++w) {
      and_mask_[n * W + w] = ~std::uint64_t{0};
      or_mask_[n * W + w] = 0;
    }
  dirty_.clear();
  ++faults_version_;
}

template <bool kMasked, unsigned W>
void CompiledNetlist::run_ops(std::uint64_t* values) const {
  const std::uint32_t* pool = fanins_.data();
  for (const Op& op : ops_) {
    const std::uint32_t* f = pool + op.fanin_begin;
    std::uint64_t v[W];
    switch (op.type) {
      case GateType::kBuf:
        lanes::copy<W>(v, values + std::size_t{f[0]} * W);
        break;
      case GateType::kNot:
        lanes::not_to<W>(v, values + std::size_t{f[0]} * W);
        break;
      case GateType::kAnd:
        lanes::fill<W>(v, ~std::uint64_t{0});
        for (std::uint32_t k = 0; k < op.fanin_count; ++k)
          lanes::and_in<W>(v, values + std::size_t{f[k]} * W);
        break;
      case GateType::kOr:
        lanes::fill<W>(v, 0);
        for (std::uint32_t k = 0; k < op.fanin_count; ++k)
          lanes::or_in<W>(v, values + std::size_t{f[k]} * W);
        break;
      case GateType::kXor:
        lanes::fill<W>(v, 0);
        for (std::uint32_t k = 0; k < op.fanin_count; ++k)
          lanes::xor_in<W>(v, values + std::size_t{f[k]} * W);
        break;
      default:
        lanes::fill<W>(v, 0);
        break;
    }
    std::uint64_t* out = values + std::size_t{op.out} * W;
    if (kMasked)
      lanes::mask_store<W>(out, v, and_mask_.data() + std::size_t{op.out} * W,
                           or_mask_.data() + std::size_t{op.out} * W);
    else
      lanes::copy<W>(out, v);
  }
}

void CompiledNetlist::evaluate(const std::uint64_t* input_lanes,
                               const std::uint64_t* dff_lanes,
                               std::uint64_t* values) const {
  const unsigned W = lane_words_;
  std::copy(init_.begin(), init_.end(), values);
  for (std::size_t k = 0; k < inputs_.size(); ++k)
    for (unsigned w = 0; w < W; ++w)
      values[inputs_[k] * W + w] = input_lanes[k * W + w];
  for (std::size_t k = 0; k < dffs_.size(); ++k)
    for (unsigned w = 0; w < W; ++w)
      values[dffs_[k] * W + w] = dff_lanes[k * W + w];
  if (!dirty_.empty()) {
    // Source nets (inputs, DFF outputs, consts) get their masks here; the
    // op loop re-applies masks to combinational nets after driving them.
    for (NetId n : dirty_)
      lanes::mask_to_runtime(values + std::size_t{n} * W,
                             values + std::size_t{n} * W,
                             and_mask_.data() + std::size_t{n} * W,
                             or_mask_.data() + std::size_t{n} * W, W);
  }
  // Fault-free reference path: all masks are the identity, skip them.
  switch (W) {
    case 1:
      dirty_.empty() ? run_ops<false, 1>(values) : run_ops<true, 1>(values);
      break;
    case 4:
      dirty_.empty() ? run_ops<false, 4>(values) : run_ops<true, 4>(values);
      break;
    case 8:
      dirty_.empty() ? run_ops<false, 8>(values) : run_ops<true, 8>(values);
      break;
  }
}

}  // namespace stc
