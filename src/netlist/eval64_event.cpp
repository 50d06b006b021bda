#include "netlist/eval64.hpp"

// Event-driven evaluation paths of CompiledNetlist, split into their own
// translation unit so the build can pin its optimization flags (see
// CMakeLists.txt). The whole cycle path is templated on the lane-word
// count W: every per-net value is a W-word group, group loops have
// constant trip counts, and the compiler unrolls them into straight-line
// word ops that auto-vectorize (one AVX2 op for W=4, one AVX-512 op or
// two AVX2 ops for W=8).

#include <algorithm>

namespace stc {

void CompiledNetlist::ensure_scratch(EventScratch& s) const {
  const unsigned W = lane_words_;
  // The size checks guard against allocator address reuse: a new
  // CompiledNetlist at the address of a destroyed one must not adopt a
  // scratch sized for the old netlist (or the old lane width).
  if (s.owner == this && s.values.size() == num_nets_ * W &&
      s.stamp.size() == ops_.size() &&
      s.dense_val.size() == dense_out_.size() * W)
    return;
  s.owner = this;
  s.values.assign(num_nets_ * W, 0);
  s.stamp.assign(ops_.size(), 0);  // epoch starts at 1: stamp 0 = never
  s.bucket.assign(ops_.size(), 0);
  s.level_fill.assign(num_levels_, 0);
  s.dense_val.assign(dense_out_.size() * W, 0);
  s.dense_terms.assign((slab_net_.size() + node_a_.size()) * W, 0);
  s.or_nz_pool.assign(edge_net_.size(), 0);
  s.or_nz_count.assign(or_op_.size(), 0);
  s.or_edge_pos.assign(edge_net_.size(), 0);
  s.epoch = 0;
  s.valid = false;
}

/// Re-seed the sparse ORs' active-fanin sets from the freshly evaluated
/// values (runs after every full evaluation, never in the cycle loop). A
/// fanin is active when any word of its lane group is nonzero.
void CompiledNetlist::rebuild_or_sets(EventScratch& s) const {
  const unsigned W = lane_words_;
  std::fill(s.or_nz_count.begin(), s.or_nz_count.end(), 0);
  for (std::size_t e = 0; e < edge_net_.size(); ++e) {
    std::uint64_t nz = 0;
    for (unsigned w = 0; w < W; ++w) nz |= s.values[edge_net_[e] * W + w];
    if (nz == 0) continue;
    const std::uint32_t r = edge_or_[e];
    const std::uint32_t pos = s.or_nz_count[r]++;
    s.or_nz_pool[or_base_[r] + pos] = static_cast<std::uint32_t>(e);
    s.or_edge_pos[e] = pos;
  }
}

/// Re-seed the dense sweep's resident product word groups from the freshly
/// evaluated values (runs after every full evaluation, i.e. once per fault
/// batch or session -- never in the cycle loop).
void CompiledNetlist::refresh_dense(EventScratch& s) const {
  const unsigned W = lane_words_;
  // Re-seed the term table from the reset evaluation's (masked) literal
  // words, then recompute every product's resident *unmasked* word group
  // from it. The incremental sweep diffs raw groups against dense_val and
  // only touches the per-net masks when a raw group actually changed.
  std::uint64_t* T = s.dense_terms.data();
  const std::size_t slab = slab_net_.size();
  for (std::size_t i = 0; i < slab; ++i)
    for (unsigned w = 0; w < W; ++w)
      T[i * W + w] = s.values[std::size_t{slab_net_[i]} * W + w];
  for (std::size_t i = 0; i < node_a_.size(); ++i)
    for (unsigned w = 0; w < W; ++w)
      T[(slab + i) * W + w] =
          T[std::size_t{node_a_[i]} * W + w] & T[std::size_t{node_b_[i]} * W + w];
  const std::uint16_t* t = dense_prog_.data();
  std::size_t j = 0;
  std::uint64_t v[kMaxLaneWords];
  for (const DenseGroup& g : dense_groups_)
    for (std::uint32_t i = 0; i < g.count; ++i, ++j, t += g.width) {
      for (unsigned w = 0; w < W; ++w) v[w] = ~std::uint64_t{0};
      for (std::uint32_t k = 0; k < g.width; ++k)
        for (unsigned w = 0; w < W; ++w) v[w] &= T[std::size_t{t[k]} * W + w];
      for (unsigned w = 0; w < W; ++w) s.dense_val[j * W + w] = v[w];
    }
  for (const DenseGroup& g : xor_groups_)
    for (std::uint32_t i = 0; i < g.count; ++i, ++j, t += g.width) {
      for (unsigned w = 0; w < W; ++w) v[w] = 0;
      for (std::uint32_t k = 0; k < g.width; ++k)
        for (unsigned w = 0; w < W; ++w) v[w] ^= T[std::size_t{t[k]} * W + w];
      for (unsigned w = 0; w < W; ++w) s.dense_val[j * W + w] = v[w];
    }
  for (const std::uint32_t width : dense_chain_width_) {
    for (unsigned w = 0; w < W; ++w) v[w] = ~std::uint64_t{0};
    for (std::uint32_t k = 0; k < width; ++k)
      for (unsigned w = 0; w < W; ++w)
        v[w] &= s.values[std::size_t{t[k]} * W + w];
    t += width;
    for (unsigned w = 0; w < W; ++w) s.dense_val[j * W + w] = v[w];
    ++j;
  }
}

template <unsigned W>
void CompiledNetlist::evaluate_event_impl(const std::uint64_t* input_lanes,
                                          const std::uint64_t* dff_lanes,
                                          EventScratch& s) const {
  ++s.epoch;
  std::fill(s.level_fill.begin(), s.level_fill.end(), 0);
  bool dense_input_changed = false;
  std::uint64_t* vals = s.values.data();
  const std::uint64_t* AM = and_mask_.data();
  const std::uint64_t* OM = or_mask_.data();

  const auto schedule = [&](std::uint32_t op) {
    if (s.stamp[op] == s.epoch) return;  // already queued this cycle
    s.stamp[op] = s.epoch;
    const std::uint32_t lvl = op_level_[op];
    s.bucket[level_base_[lvl] + s.level_fill[lvl]++] = op;
  };
  const auto push_fanouts = [&](NetId n) {
    for (std::uint32_t i = fanout_offset_[n]; i < fanout_offset_[n + 1]; ++i)
      schedule(fanout_pool_[i]);
  };
  // Commit a changed net word group: remember it, mark the dense sweep
  // armed when a product reads this net, maintain the sparse ORs'
  // active-fanin sets (all-zero <-> nonzero transitions of the whole group
  // join/leave by swap-remove), and wake the CSR readers.
  const auto commit = [&](NetId n, const std::uint64_t* w) {
    std::uint64_t* cur = vals + std::size_t{n} * W;
    const bool was_nz = lanes::any<W>(cur);
    lanes::copy<W>(cur, w);
    ++s.net_events;
    dense_input_changed |= is_dense_input_[n] != 0;
    for (std::uint32_t i = sor_offset_[n]; i < sor_offset_[n + 1]; ++i) {
      const std::uint32_t e = sor_edge_[i];
      const std::uint32_t r = edge_or_[e];
      if (!was_nz) {  // joined the active set (w != old, so w != 0)
        const std::uint32_t pos = s.or_nz_count[r]++;
        s.or_nz_pool[or_base_[r] + pos] = e;
        s.or_edge_pos[e] = pos;
      } else if (!lanes::any<W>(cur)) {  // left the active set
        const std::uint32_t pos = s.or_edge_pos[e];
        const std::uint32_t last = --s.or_nz_count[r];
        const std::uint32_t moved = s.or_nz_pool[or_base_[r] + last];
        s.or_nz_pool[or_base_[r] + pos] = moved;
        s.or_edge_pos[moved] = pos;
      }
      schedule(or_op_[r]);
    }
    push_fanouts(n);
  };
  // Drive a source word group; its readers only wake if the (masked) group
  // actually changed since the previous cycle. Fault masks are constant
  // within a batch (set_faults/clear_faults force the full-evaluation path
  // above) and are applied at every drive and commit, so a masked group
  // changes exactly when this diff fires -- injected lanes stay exact by
  // the same resident-value invariant as the fault-free ones.
  const auto drive_source = [&](NetId n, const std::uint64_t* raw) {
    std::uint64_t w[W];
    lanes::mask_to<W>(w, raw, AM + std::size_t{n} * W, OM + std::size_t{n} * W);
    if (!lanes::equal<W>(w, vals + std::size_t{n} * W)) commit(n, w);
  };

  for (std::size_t k = 0; k < inputs_.size(); ++k)
    drive_source(inputs_[k], input_lanes + k * W);
  for (std::size_t k = 0; k < dffs_.size(); ++k)
    drive_source(dffs_[k], dff_lanes + k * W);

  std::uint64_t evaluated = 0;
  const std::uint32_t* pool = fanins_.data();
  // Pop one scheduled level segment. Ops only ever schedule ops at deeper
  // levels (their output's readers), so each segment is complete before it
  // is visited.
  const auto sweep_level = [&](std::uint32_t lvl) {
    const std::uint32_t base = level_base_[lvl];
    for (std::uint32_t i = 0; i < s.level_fill[lvl]; ++i) {
      const std::uint32_t op_idx = s.bucket[base + i];
      const Op& op = ops_[op_idx];
      const std::uint32_t* f = pool + op.fanin_begin;
      std::uint64_t v[W];
      switch (op.type) {
        case GateType::kBuf:
          lanes::copy<W>(v, vals + std::size_t{f[0]} * W);
          break;
        case GateType::kNot:
          lanes::not_to<W>(v, vals + std::size_t{f[0]} * W);
          break;
        case GateType::kAnd:
          lanes::fill<W>(v, ~std::uint64_t{0});
          for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
            lanes::and_in<W>(v, vals + std::size_t{f[k]} * W);
            if (W == 1 && v[0] == 0) break;  // a zero word is absorbing
          }
          break;
        case GateType::kOr:
          lanes::fill<W>(v, 0);
          if (sparse_or_of_op_[op_idx] != kNoOp) {
            // OR over the currently-nonzero fanins only; the set was
            // maintained by the commits below this level.
            const std::uint32_t r = sparse_or_of_op_[op_idx];
            const std::uint32_t b = or_base_[r];
            for (std::uint32_t k = 0; k < s.or_nz_count[r]; ++k)
              lanes::or_in<W>(
                  v, vals + std::size_t{edge_net_[s.or_nz_pool[b + k]]} * W);
          } else {
            for (std::uint32_t k = 0; k < op.fanin_count; ++k) {
              lanes::or_in<W>(v, vals + std::size_t{f[k]} * W);
              if (W == 1 && v[0] == ~std::uint64_t{0}) break;  // saturated
            }
          }
          break;
        case GateType::kXor:
          lanes::fill<W>(v, 0);
          for (std::uint32_t k = 0; k < op.fanin_count; ++k)
            lanes::xor_in<W>(v, vals + std::size_t{f[k]} * W);
          break;
        default:
          lanes::fill<W>(v, 0);
          break;
      }
      ++evaluated;
      std::uint64_t w[W];
      lanes::mask_to<W>(w, v, AM + std::size_t{op.out} * W,
                        OM + std::size_t{op.out} * W);
      if (lanes::equal<W>(w, vals + std::size_t{op.out} * W))
        continue;  // glitch suppression: cone dies
      commit(op.out, w);
    }
  };

  // Levels below the boundary first: they finalize every literal net
  // (non-dense, level <= boundary_) the dense products read, and none of
  // them reads a dense product (the compile demotes any such product).
  const std::uint32_t split = std::min(boundary_, num_levels_);
  for (std::uint32_t lvl = 0; lvl < split; ++lvl) sweep_level(lvl);

  // Dense product sweep. All product inputs are final here: literals were
  // finalized by the sweep below the boundary, chained products read
  // earlier dense products (emitted in topo order after the groups), and
  // deeper ops cannot feed a dense product by construction. Skipped
  // outright when no product input changed (then no product output can
  // change either).
  // Every memory stream in the common path is sequential: the uint16 fanin
  // program, the resident product word groups, and the mask flags;
  // values[] is only touched for the literal loads (a few dozen hot nets)
  // and for the rare products whose group actually changed.
  if (dense_input_changed && !dense_out_.empty()) {
    // Term table: the literal slab, then every shared AND node (ids only
    // ever point backwards, so one sequential pass evaluates the table).
    std::uint64_t* T = s.dense_terms.data();
    const std::size_t slab = slab_net_.size();
    for (std::size_t i = 0; i < slab; ++i)
      lanes::copy<W>(T + i * W, vals + std::size_t{slab_net_[i]} * W);
    for (std::size_t i = 0; i < node_a_.size(); ++i)
      lanes::and_to_inplace<W>(T + (slab + i) * W,
                               T + std::size_t{node_a_[i]} * W,
                               T + std::size_t{node_b_[i]} * W);

    // The common path per product is just its term loads plus one
    // sequential resident-group compare, kept inline in each group loop so
    // the product's word group never leaves registers (an outlined call
    // here costs more than the whole product evaluation). Raw (unmasked)
    // groups are diffed; the rare changed-group path -- per-net output
    // masks, then commit unless the masked group is unchanged (a mask can
    // pin exactly the lanes that toggled) -- stays out of line.
    std::uint64_t* dv = s.dense_val.data();
    // noinline: keeps `finish` below the inlining threshold, so the
    // compare really is emitted at every group-loop call site.
    const auto changed = [&](std::size_t j,
                             const std::uint64_t* v) __attribute__((noinline)) {
      ++evaluated;
      lanes::copy<W>(dv + j * W, v);
      const std::uint32_t out = dense_out_[j];
      std::uint64_t w[W];
      lanes::mask_to<W>(w, v, AM + std::size_t{out} * W,
                        OM + std::size_t{out} * W);
      if (!lanes::equal<W>(w, vals + std::size_t{out} * W)) commit(out, w);
    };
    const auto finish = [&](std::size_t j, const std::uint64_t* v) {
      if (!lanes::equal<W>(v, dv + j * W)) changed(j, v);
    };
    const std::uint16_t* t = dense_prog_.data();
    std::size_t j = 0;
    std::uint64_t v[W];
    for (const DenseGroup& g : dense_groups_) {
      const std::uint32_t n = g.count;
      // Specialized bodies for the common post-folding widths: fixed trip
      // counts, no inner-loop branches.
      switch (g.width) {
        case 1:
          for (std::uint32_t i = 0; i < n; ++i, ++j, t += 1) {
            lanes::copy<W>(v, T + std::size_t{t[0]} * W);
            finish(j, v);
          }
          break;
        case 2:
          for (std::uint32_t i = 0; i < n; ++i, ++j, t += 2) {
            for (unsigned w = 0; w < W; ++w)
              v[w] = T[std::size_t{t[0]} * W + w] & T[std::size_t{t[1]} * W + w];
            finish(j, v);
          }
          break;
        case 3:
          for (std::uint32_t i = 0; i < n; ++i, ++j, t += 3) {
            for (unsigned w = 0; w < W; ++w)
              v[w] = T[std::size_t{t[0]} * W + w] &
                     T[std::size_t{t[1]} * W + w] & T[std::size_t{t[2]} * W + w];
            finish(j, v);
          }
          break;
        case 4:
          for (std::uint32_t i = 0; i < n; ++i, ++j, t += 4) {
            for (unsigned w = 0; w < W; ++w)
              v[w] = (T[std::size_t{t[0]} * W + w] & T[std::size_t{t[1]} * W + w]) &
                     (T[std::size_t{t[2]} * W + w] & T[std::size_t{t[3]} * W + w]);
            finish(j, v);
          }
          break;
        case 5:
          for (std::uint32_t i = 0; i < n; ++i, ++j, t += 5) {
            for (unsigned w = 0; w < W; ++w)
              v[w] = (T[std::size_t{t[0]} * W + w] & T[std::size_t{t[1]} * W + w]) &
                     (T[std::size_t{t[2]} * W + w] & T[std::size_t{t[3]} * W + w]) &
                     T[std::size_t{t[4]} * W + w];
            finish(j, v);
          }
          break;
        default:
          for (std::uint32_t i = 0; i < n; ++i, ++j, t += g.width) {
            lanes::fill<W>(v, ~std::uint64_t{0});
            for (std::uint32_t k = 0; k < g.width; ++k)
              lanes::and_in<W>(v, T + std::size_t{t[k]} * W);
            finish(j, v);
          }
          break;
      }
    }
    // Literal-shaped XOR planes: same slot space, XOR-combined.
    for (const DenseGroup& g : xor_groups_) {
      for (std::uint32_t i = 0; i < g.count; ++i, ++j, t += g.width) {
        lanes::fill<W>(v, 0);
        for (std::uint32_t k = 0; k < g.width; ++k)
          lanes::xor_in<W>(v, T + std::size_t{t[k]} * W);
        finish(j, v);
      }
    }
    for (const std::uint32_t width : dense_chain_width_) {
      lanes::fill<W>(v, ~std::uint64_t{0});
      for (std::uint32_t k = 0; k < width; ++k)
        lanes::and_in<W>(v, vals + std::size_t{t[k]} * W);
      t += width;
      finish(j, v);
      ++j;
    }
  }

  for (std::uint32_t lvl = split; lvl < num_levels_; ++lvl) sweep_level(lvl);

  s.ops_evaluated += evaluated;
  ++s.cycles;
}

void CompiledNetlist::evaluate_event(const std::uint64_t* input_lanes,
                                     const std::uint64_t* dff_lanes,
                                     EventScratch& s) const {
  ensure_scratch(s);
  if (!s.valid || s.faults_version != faults_version_) {
    // Reset path: one full evaluation re-seeds the resident values, making
    // the incremental engine bit-identical to evaluate() by construction.
    evaluate(input_lanes, dff_lanes, s.values.data());
    refresh_dense(s);
    rebuild_or_sets(s);
    s.valid = true;
    s.faults_version = faults_version_;
    ++s.full_evals;
    ++s.cycles;
    s.ops_evaluated += ops_.size();
    return;
  }
  switch (lane_words_) {
    case 1:
      evaluate_event_impl<1>(input_lanes, dff_lanes, s);
      break;
    case 4:
      evaluate_event_impl<4>(input_lanes, dff_lanes, s);
      break;
    case 8:
      evaluate_event_impl<8>(input_lanes, dff_lanes, s);
      break;
  }
}

}  // namespace stc
