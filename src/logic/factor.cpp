#include "logic/factor.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "logic/pair_queue.hpp"

namespace stc {
namespace {

// --- sorted-set helpers on FCubes --------------------------------------------

bool cube_includes(const FCube& big, const FCube& small) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

FCube cube_difference(const FCube& a, const FCube& b) {
  FCube out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

FCube cube_union(const FCube& a, const FCube& b) {
  FCube out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

FCube cube_intersection(const FCube& a, const FCube& b) {
  FCube out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

// --- SopExpr -----------------------------------------------------------------

std::size_t SopExpr::num_literals() const {
  std::size_t n = 0;
  for (const FCube& c : cubes) n += c.size();
  return n;
}

void SopExpr::normalize() {
  std::sort(cubes.begin(), cubes.end());
  cubes.erase(std::unique(cubes.begin(), cubes.end()), cubes.end());
}

FCube fcube_from_cube(const Cube& c, std::size_t num_vars) {
  FCube out;
  out.reserve(c.num_literals());
  for (std::size_t v = 0; v < num_vars; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    if (!(c.care & bit)) continue;
    out.push_back((c.value & bit) ? pos_lit(v) : neg_lit(v));
  }
  return out;  // ascending by construction (one literal per variable)
}

std::vector<SopExpr> sops_from_cubelist(const CubeList& pla) {
  std::vector<SopExpr> out(pla.num_outputs());
  for (const MCube& m : pla.cubes()) {
    const FCube fc = fcube_from_cube(m.in, pla.num_vars());
    std::uint64_t rest = m.out;
    while (rest) {
      const std::size_t b = static_cast<std::size_t>(__builtin_ctzll(rest));
      rest &= rest - 1;
      out[b].cubes.push_back(fc);
    }
  }
  for (SopExpr& s : out) s.normalize();
  return out;
}

// --- algebraic division ------------------------------------------------------

std::vector<FCube> quotient_by_cube(const SopExpr& f, const FCube& d) {
  std::vector<FCube> out;
  for (const FCube& c : f.cubes)
    if (cube_includes(c, d)) out.push_back(cube_difference(c, d));
  std::sort(out.begin(), out.end());
  return out;
}

FCube common_cube(const std::vector<FCube>& cubes) {
  if (cubes.empty()) return {};
  FCube common = cubes[0];
  for (std::size_t i = 1; i < cubes.size() && !common.empty(); ++i)
    common = cube_intersection(common, cubes[i]);
  return common;
}

SopExpr algebraic_quotient(const SopExpr& f, const SopExpr& d) {
  // Intersection over divisor cubes of { c \ dc : dc subset c }. Every
  // cube of the intersection is support-disjoint from *every* divisor cube
  // (it equals c' \ dc for each dc), so quotient * divisor is a proper
  // algebraic product and each of its cubes is a cube of f.
  SopExpr q;
  if (d.cubes.empty()) return q;
  q.cubes = quotient_by_cube(f, d.cubes[0]);
  // Every later divisor cube only filters the candidates: keep a quotient
  // cube when some cube of f equals it joined with dc.
  std::vector<bool> hit;
  FCube diff;
  for (std::size_t k = 1; k < d.cubes.size() && !q.cubes.empty(); ++k) {
    const FCube& dc = d.cubes[k];
    hit.assign(q.cubes.size(), false);
    for (const FCube& c : f.cubes) {
      if (!cube_includes(c, dc)) continue;
      diff.clear();
      std::set_difference(c.begin(), c.end(), dc.begin(), dc.end(),
                          std::back_inserter(diff));
      const auto it = std::lower_bound(q.cubes.begin(), q.cubes.end(), diff);
      if (it != q.cubes.end() && *it == diff) hit[it - q.cubes.begin()] = true;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < q.cubes.size(); ++i) {
      if (!hit[i]) continue;
      if (kept != i) q.cubes[kept] = std::move(q.cubes[i]);
      ++kept;
    }
    q.cubes.resize(kept);
  }
  return q;
}

DivisionResult divide(const SopExpr& f, const SopExpr& d) {
  DivisionResult res;
  if (d.cubes.empty()) {
    res.remainder = f;
    return res;
  }
  res.quotient = algebraic_quotient(f, d);

  // Remainder: the cubes of f not covered by quotient * divisor. Scanned
  // by membership (not set_difference) so f's cube *list* need not be
  // sorted -- the extractor rewrites cubes in place, which preserves each
  // cube's internal order but not the list order.
  std::vector<FCube> product;
  product.reserve(res.quotient.cubes.size() * d.cubes.size());
  for (const FCube& qc : res.quotient.cubes)
    for (const FCube& dc : d.cubes) product.push_back(cube_union(qc, dc));
  std::sort(product.begin(), product.end());
  product.erase(std::unique(product.begin(), product.end()), product.end());
  for (const FCube& c : f.cubes)
    if (!std::binary_search(product.begin(), product.end(), c))
      res.remainder.cubes.push_back(c);
  return res;
}

// --- kernels -----------------------------------------------------------------

std::vector<Kernel> enumerate_kernels(const SopExpr& f, std::size_t pair_cap) {
  std::vector<Kernel> out;
  if (f.cubes.size() < 2) return out;

  // Co-kernel cube candidates: single literals used by >= 2 cubes, pairwise
  // cube intersections (small functions only), and the empty cube (which
  // yields f itself when f is cube-free).
  std::set<FCube> candidates;
  candidates.insert(FCube{});  // NOT insert({}): that is the empty init-list
  {
    std::unordered_map<LitId, std::size_t> lit_count;
    for (const FCube& c : f.cubes)
      for (LitId l : c) ++lit_count[l];
    for (const auto& [lit, count] : lit_count)
      if (count >= 2) candidates.insert({lit});
  }
  if (f.cubes.size() <= pair_cap) {
    // Only >= 2-literal cubes can contribute a multi-literal co-kernel;
    // a pair involving a 1-literal cube intersects to at most that
    // literal, which the single-literal candidates above already cover.
    for (std::size_t i = 0; i < f.cubes.size(); ++i) {
      if (f.cubes[i].size() < 2) continue;
      for (std::size_t j = i + 1; j < f.cubes.size(); ++j) {
        if (f.cubes[j].size() < 2) continue;
        FCube inter = cube_intersection(f.cubes[i], f.cubes[j]);
        if (!inter.empty()) candidates.insert(std::move(inter));
      }
    }
  }

  std::set<std::vector<FCube>> seen_kernels;
  for (const FCube& ck : candidates) {
    std::vector<FCube> q = quotient_by_cube(f, ck);
    if (q.size() < 2) continue;
    // Make the quotient cube-free; the divided-out cube joins the co-kernel.
    const FCube cc = common_cube(q);
    Kernel k;
    k.cokernel = cube_union(ck, cc);
    k.kernel.cubes.reserve(q.size());
    for (const FCube& c : q) k.kernel.cubes.push_back(cube_difference(c, cc));
    std::sort(k.kernel.cubes.begin(), k.kernel.cubes.end());
    if (!seen_kernels.insert(k.kernel.cubes).second) continue;
    out.push_back(std::move(k));
  }
  return out;
}

// --- FactoredNetwork ---------------------------------------------------------

std::size_t FactoredNetwork::num_literals() const {
  std::size_t n = 0;
  for (const SopExpr& s : nodes) n += s.num_literals();
  for (const SopExpr& s : outputs) n += s.num_literals();
  return n;
}

namespace {

bool eval_lit(LitId l, Minterm m, const std::vector<bool>& node_vals,
              std::size_t num_vars) {
  if (is_node_lit(l, num_vars)) return node_vals[node_of_lit(l, num_vars)];
  const bool bit = (m >> (l / 2)) & 1;
  return (l & 1) ? !bit : bit;
}

bool eval_sop(const SopExpr& s, Minterm m, const std::vector<bool>& node_vals,
              std::size_t num_vars) {
  for (const FCube& c : s.cubes) {
    bool v = true;
    for (LitId l : c) v = v && eval_lit(l, m, node_vals, num_vars);
    if (v) return true;
  }
  return false;
}

}  // namespace

void FactoredNetwork::evaluate_all(Minterm m, std::vector<bool>& node_vals,
                                   std::vector<bool>& out_vals) const {
  node_vals.assign(nodes.size(), false);
  out_vals.assign(outputs.size(), false);
  for (std::size_t j = 0; j < nodes.size(); ++j)
    node_vals[j] = eval_sop(nodes[j], m, node_vals, num_vars);
  for (std::size_t b = 0; b < outputs.size(); ++b)
    out_vals[b] = eval_sop(outputs[b], m, node_vals, num_vars);
}

bool FactoredNetwork::evaluate(Minterm m, std::size_t b) const {
  std::vector<bool> node_vals, out_vals;
  evaluate_all(m, node_vals, out_vals);
  return out_vals.at(b);
}

void FactoredNetwork::check() const {
  auto check_sop = [&](const SopExpr& s, std::size_t max_node) {
    for (const FCube& c : s.cubes) {
      for (std::size_t i = 0; i + 1 < c.size(); ++i)
        if (c[i] >= c[i + 1])
          throw std::logic_error("FactoredNetwork: unsorted cube");
      for (LitId l : c)
        if (is_node_lit(l, num_vars) && node_of_lit(l, num_vars) >= max_node)
          throw std::logic_error("FactoredNetwork: forward node reference");
    }
  };
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (nodes[j].cubes.empty())
      throw std::logic_error("FactoredNetwork: empty node SOP");
    check_sop(nodes[j], j);
  }
  for (const SopExpr& s : outputs) check_sop(s, nodes.size());
}

// --- greedy extraction -------------------------------------------------------

namespace {

/// Hard cap on extracted intermediate nodes (the greedy loop normally
/// stops on its own when no divisor saves literals).
constexpr std::size_t kMaxNodes = std::size_t{1} << 16;
/// Functions with more cubes than this skip the pairwise co-kernel
/// enumeration (single-literal co-kernels are always tried).
constexpr std::size_t kKernelPairCap = 96;
/// Kernel divisors larger than this are not considered (bounds the
/// division work per candidate).
constexpr std::size_t kMaxDivisorCubes = 64;
/// At most this many kernels per function enter the candidate pool per
/// enumeration (largest literal mass first): big outputs yield hundreds
/// of near-identical kernels that all evaluate unprofitable.
constexpr std::size_t kMaxKernelsPerFunc = 24;

/// The extraction working state: outputs and node definitions live in one
/// function array (funcs_[b] = output b, funcs_[num_outputs + j] = node j),
/// with incremental bookkeeping that every rewrite keeps exact, so no
/// search ever rescans the network:
///   * pairs_ -- global occurrence counts of 2-literal sub-cubes, in a
///     queue holding one entry per pair that occurs at least twice;
///   * lit_bits_ -- literal -> bitset over cube slots (every live cube owns
///     one slot), so the cubes containing a literal set are one AND;
///   * lit_funcs_ / FuncIndex::max_width -- literal -> the functions
///     using it, with a cube count per (literal, function), and each
///     function's widest cube: the candidate filter of kernel scoring.
class Extractor {
 public:
  /// `outputs` are the per-output expressions, each normalized.
  Extractor(std::size_t num_vars, std::vector<SopExpr> outputs, const Budget& budget)
      : num_vars_(num_vars), num_outputs_(outputs.size()), budget_(budget),
        funcs_(std::move(outputs)) {
    dirty_.assign(funcs_.size(), true);
    func_index_.resize(funcs_.size());
    for (std::uint32_t f = 0; f < funcs_.size(); ++f) register_func(f);
    pairs_.build();
  }

  FactoredNetwork run() {
    // Alternate the two searches until neither finds a profitable divisor:
    // kernel substitutions create fresh cube-sharing opportunities and
    // cube extraction reshapes the kernel structure. Every substitution is
    // applied atomically, so stopping between steps (budget) leaves an
    // exactly equivalent network.
    bool changed = true;
    while (changed && num_nodes() < kMaxNodes && !truncated_) {
      changed = false;
      if (cube_phase()) changed = true;
      if (!truncated_ && kernel_phase()) changed = true;
    }
    cleanup();
    return emit();
  }

  bool truncated() const { return truncated_; }
  /// Completed extraction steps (cube pulls and kernel rounds): the
  /// budget's work unit.
  std::uint64_t steps() const { return steps_; }
  /// Budget reason at the stop ("" when not truncated).
  const char* stop_reason() const { return budget_.reason(); }

 private:
  struct CubeRef {
    std::uint32_t func;
    std::uint32_t idx;
  };
  /// One entry of a literal's function list: a function using the literal
  /// and the number of its cubes that do.
  struct FuncUse {
    std::uint32_t func;
    std::uint32_t cubes;
  };
  /// A function's share of the indexes: the slot of each of its cubes and
  /// its cube count per width, whose highest nonzero entry is max_width.
  struct FuncIndex {
    std::vector<std::uint32_t> slots;
    std::vector<std::uint32_t> width_count;
    std::uint32_t max_width = 0;
  };

  std::size_t num_nodes() const { return funcs_.size() - num_outputs_; }
  LitId lit_of_node(std::size_t j) const { return node_lit(num_vars_, j); }
  std::size_t func_of_node(std::size_t j) const { return num_outputs_ + j; }
  bool is_node_func(std::size_t f) const { return f >= num_outputs_; }

  static std::uint64_t pair_key(LitId a, LitId b) {
    return (std::uint64_t{a} << 32) | b;  // requires a < b
  }

  const FCube& ref_cube(const CubeRef& r) const {
    return funcs_[r.func].cubes[r.idx];
  }

  void add_pairs(const FCube& c, int delta) {
    for (std::size_t i = 0; i < c.size(); ++i)
      for (std::size_t j = i + 1; j < c.size(); ++j)
        pairs_.add(pair_key(c[i], c[j]), delta);
  }

  // --- the literal indexes ---------------------------------------------------

  void set_bit(LitId l, std::uint32_t slot) {
    if (lit_bits_.size() <= l) lit_bits_.resize(l + 1);
    std::vector<std::uint64_t>& bits = lit_bits_[l];
    if (bits.size() <= slot / 64) bits.resize(slot / 64 + 1, 0);
    bits[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
  void clear_bit(LitId l, std::uint32_t slot) {
    lit_bits_[l][slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }

  /// Count one more (delta +1) or one fewer (-1) cube of `f` using `l`.
  void count_use(LitId l, std::uint32_t f, int delta) {
    if (lit_funcs_.size() <= l) lit_funcs_.resize(l + 1);
    std::vector<FuncUse>& uses = lit_funcs_[l];
    const auto it = std::lower_bound(
        uses.begin(), uses.end(), f,
        [](const FuncUse& u, std::uint32_t g) { return u.func < g; });
    if (delta > 0) {
      if (it != uses.end() && it->func == f) ++it->cubes;
      else uses.insert(it, FuncUse{f, 1});
    } else if (--it->cubes == 0) {
      uses.erase(it);
    }
  }

  /// Count one more (+1) or one fewer (-1) cube of `width` literals in `f`.
  void count_width(std::uint32_t f, std::size_t width, int delta) {
    FuncIndex& fi = func_index_[f];
    if (fi.width_count.size() <= width) fi.width_count.resize(width + 1, 0);
    fi.width_count[width] += static_cast<std::uint32_t>(delta);
    if (delta > 0) {
      fi.max_width = std::max(fi.max_width, static_cast<std::uint32_t>(width));
    } else {
      while (fi.max_width > 0 && fi.width_count[fi.max_width] == 0) --fi.max_width;
    }
  }

  /// Enter or drop cube i of f in every index (its pairs included).
  void index_cube(std::uint32_t f, std::uint32_t i, int delta) {
    const FCube& c = funcs_[f].cubes[i];
    const std::uint32_t slot = func_index_[f].slots[i];
    for (LitId l : c) {
      if (delta > 0) set_bit(l, slot);
      else clear_bit(l, slot);
      count_use(l, f, delta);
    }
    count_width(f, c.size(), delta);
    add_pairs(c, delta);
  }

  /// Give every cube of f a slot and index it.
  void register_func(std::uint32_t f) {
    const std::uint32_t n = static_cast<std::uint32_t>(funcs_[f].cubes.size());
    func_index_[f].slots.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t slot;
      if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slot_cube_.size());
        slot_cube_.emplace_back();
      } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
      }
      slot_cube_[slot] = {f, i};
      func_index_[f].slots[i] = slot;
      index_cube(f, i, +1);
    }
  }

  /// Substitute the cube divisor `divisor` (a subset of the cube) by its
  /// node literal `x`, in place. Only the pairs that change are counted:
  /// those touching a divisor literal leave, those with x arrive.
  void rewrite_cube(const CubeRef& r, const FCube& divisor, LitId x) {
    FCube& cur = funcs_[r.func].cubes[r.idx];
    const std::uint32_t slot = func_index_[r.func].slots[r.idx];
    auto in_divisor = [&](LitId l) {
      return std::binary_search(divisor.begin(), divisor.end(), l);
    };
    for (std::size_t i = 0; i < cur.size(); ++i)
      for (std::size_t j = i + 1; j < cur.size(); ++j)
        if (in_divisor(cur[i]) || in_divisor(cur[j]))
          pairs_.add(pair_key(cur[i], cur[j]), -1);
    for (LitId l : divisor) {
      clear_bit(l, slot);
      count_use(l, r.func, -1);
    }
    count_width(r.func, cur.size(), -1);
    FCube next = cube_difference(cur, divisor);
    for (LitId l : next) pairs_.add(pair_key(l, x), +1);
    next.push_back(x);  // x is the largest id: stays sorted
    cur = std::move(next);
    set_bit(x, slot);
    count_use(x, r.func, +1);
    count_width(r.func, cur.size(), +1);
    dirty_[r.func] = true;
  }

  /// Replace a whole function (kernel substitution): drop its cubes from
  /// every index, free their slots, then register the new cubes.
  void rebuild_func(std::uint32_t f, std::vector<FCube> next) {
    for (std::uint32_t i = 0; i < funcs_[f].cubes.size(); ++i) {
      index_cube(f, i, -1);
      free_slots_.push_back(func_index_[f].slots[i]);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    funcs_[f].cubes = std::move(next);
    register_func(f);
    dirty_[f] = true;
  }

  std::uint32_t new_node(std::vector<FCube> def) {
    const std::uint32_t f = static_cast<std::uint32_t>(funcs_.size());
    funcs_.emplace_back();
    std::sort(def.begin(), def.end());
    funcs_.back().cubes = std::move(def);
    dirty_.push_back(true);
    func_index_.emplace_back();
    register_func(f);
    return f;
  }

  /// Does the definition cone of the literal set `lits` reach node function
  /// `target`? Guards substitutions into node definitions against cycles.
  /// Stamp-based visited set: no allocation per call.
  bool cone_reaches(const FCube& lits, std::uint32_t target) {
    bool any_node = false;
    for (LitId l : lits) any_node = any_node || is_node_lit(l, num_vars_);
    if (!any_node) return false;
    if (reach_seen_.size() < funcs_.size()) reach_seen_.resize(funcs_.size(), 0);
    const std::uint32_t stamp = ++reach_stamp_;
    reach_stack_.clear();
    for (LitId l : lits)
      if (is_node_lit(l, num_vars_)) {
        const std::uint32_t f =
            static_cast<std::uint32_t>(func_of_node(node_of_lit(l, num_vars_)));
        if (reach_seen_[f] != stamp) {
          reach_seen_[f] = stamp;
          reach_stack_.push_back(f);
        }
      }
    while (!reach_stack_.empty()) {
      const std::uint32_t f = reach_stack_.back();
      reach_stack_.pop_back();
      if (f == target) return true;
      for (const FCube& c : funcs_[f].cubes)
        for (LitId l : c)
          if (is_node_lit(l, num_vars_)) {
            const std::uint32_t g = static_cast<std::uint32_t>(
                func_of_node(node_of_lit(l, num_vars_)));
            if (reach_seen_[g] != stamp) {
              reach_seen_[g] = stamp;
              reach_stack_.push_back(g);
            }
          }
    }
    return false;
  }

  /// All current cubes containing both literals a and b, in slot order.
  std::vector<CubeRef> cubes_containing(LitId a, LitId b) const {
    std::vector<CubeRef> out;
    const std::vector<std::uint64_t>& x = lit_bits_[a];
    const std::vector<std::uint64_t>& y = lit_bits_[b];
    const std::size_t words = std::min(x.size(), y.size());
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t both = x[w] & y[w];
      while (both) {
        const std::size_t bit = static_cast<std::size_t>(__builtin_ctzll(both));
        both &= both - 1;
        out.push_back(slot_cube_[w * 64 + bit]);
      }
    }
    return out;
  }

  // --- cube-divisor phase ----------------------------------------------------

  struct CubeCandidate {
    FCube divisor;
    std::vector<CubeRef> targets;
    long value = 0;
  };

  /// Best common-cube divisor grown from the pair (a, b): take every cube
  /// containing the pair and try both the pair itself and the full common
  /// cube of those occurrences. Both divisors occur in exactly those cubes
  /// (each contains the common cube), so one lookup serves both.
  CubeCandidate grow_pair(LitId a, LitId b) {
    CubeCandidate cand;
    const FCube pair = {a, b};
    const std::vector<CubeRef> occ = cubes_containing(a, b);
    if (occ.size() < 2) return cand;

    FCube grown = ref_cube(occ[0]);
    for (std::size_t k = 1; k < occ.size() && grown.size() > 2; ++k) {
      const FCube& c = ref_cube(occ[k]);
      std::size_t kept = 0;
      std::size_t j = 0;
      for (LitId l : grown) {
        while (j < c.size() && c[j] < l) ++j;
        if (j < c.size() && c[j] == l) grown[kept++] = l;
      }
      grown.resize(kept);
    }

    for (const FCube* divisor : {&pair, &std::as_const(grown)}) {
      if (divisor->size() < 2) continue;
      // Cycle guard: drop occurrences inside node definitions the divisor's
      // own cone depends on.
      std::vector<CubeRef> targets = occ;
      targets.erase(std::remove_if(targets.begin(), targets.end(),
                                   [&](const CubeRef& r) {
                                     return is_node_func(r.func) &&
                                            cone_reaches(*divisor, r.func);
                                   }),
                    targets.end());
      if (targets.size() < 2) continue;
      const long w = static_cast<long>(divisor->size());
      const long value = static_cast<long>(targets.size()) * (w - 1) - w;
      if (value > cand.value) {
        cand.divisor = *divisor;
        cand.targets = std::move(targets);
        cand.value = value;
      }
    }
    return cand;
  }

  /// Extract the best-value common-cube divisor until none saves literals.
  bool cube_phase() {
    bool any = false;
    while (num_nodes() < kMaxNodes) {
      // One extraction step = one budget unit, charged up front.
      if (budget_.spend(1)) {
        truncated_ = true;
        break;
      }
      // Probe the top distinct pairs by (count desc, key desc); they stay
      // out of the queue until this step's rewrite is done.
      constexpr std::size_t kProbe = 16;
      CubeCandidate best;
      for (const std::uint64_t key : pairs_.take(kProbe)) {
        CubeCandidate cand = grow_pair(static_cast<LitId>(key >> 32),
                                       static_cast<LitId>(key & 0xFFFFFFFFu));
        if (cand.value > best.value) best = std::move(cand);
      }
      if (best.value > 0) {
        // One AND node for the divisor; every occurrence drops the
        // divisor's literals and gains a reference to it.
        const std::uint32_t nf = new_node({best.divisor});
        const LitId x = lit_of_node(nf - num_outputs_);
        for (const CubeRef& r : best.targets) rewrite_cube(r, best.divisor, x);
      }
      pairs_.release();
      ++steps_;
      if (best.value <= 0) break;
      any = true;
    }
    return any;
  }

  // --- kernel-divisor phase --------------------------------------------------

  struct KernelTarget {
    std::uint32_t func;
    SopExpr quotient;
    SopExpr remainder;
  };

  /// Candidate value: substituting divisor d into g = q*d + r turns
  /// cubes(d)*lits(q) + cubes(q)*lits(d) product literals into
  /// lits(q) + cubes(q), and the node definition itself costs lits(d).
  /// Scoring needs only the quotients; with `targets` the full division of
  /// every divided function is collected for the rewrite.
  long evaluate_kernel(const SopExpr& d, std::vector<KernelTarget>* targets,
                       std::vector<std::uint32_t>* watched = nullptr) {
    std::uint32_t d_width = 0;
    for (const FCube& c : d.cubes)
      d_width = std::max(d_width, static_cast<std::uint32_t>(c.size()));
    // A function divisible by d must use every literal of d's support
    // (each divisor cube has to be a subset of one of its cubes), so the
    // candidate set is the intersection of the per-literal function lists.
    FCube support;
    for (const FCube& c : d.cubes)
      support.insert(support.end(), c.begin(), c.end());
    std::sort(support.begin(), support.end());
    support.erase(std::unique(support.begin(), support.end()), support.end());
    if (support.empty()) return 0;
    std::vector<std::uint32_t> funcs;
    for (std::size_t i = 0; i < support.size(); ++i) {
      const std::vector<FuncUse>& uses = lit_funcs_[support[i]];
      if (i == 0) {
        for (const FuncUse& u : uses) funcs.push_back(u.func);
      } else {
        std::size_t kept = 0;
        auto u = uses.begin();
        for (std::uint32_t f : funcs) {
          while (u != uses.end() && u->func < f) ++u;
          if (u != uses.end() && u->func == f) funcs[kept++] = f;
        }
        funcs.resize(kept);
      }
      if (funcs.empty()) return 0;
    }
    if (watched) *watched = funcs;

    const long d_cubes = static_cast<long>(d.cubes.size());
    const long d_lits = static_cast<long>(d.num_literals());
    long value = -d_lits;
    for (std::uint32_t g : funcs) {
      // Every divisor cube must fit inside some cube of g.
      if (d_width > func_index_[g].max_width) continue;
      if (is_node_func(g) && cone_reaches(support, g)) continue;
      DivisionResult div;
      if (targets) div = divide(funcs_[g], d);
      else div.quotient = algebraic_quotient(funcs_[g], d);
      if (div.quotient.cubes.empty()) continue;
      const long q_cubes = static_cast<long>(div.quotient.cubes.size());
      const long q_lits = static_cast<long>(div.quotient.num_literals());
      value += d_cubes * q_lits + q_cubes * d_lits - q_lits - q_cubes;
      if (targets)
        targets->push_back({g, std::move(div.quotient), std::move(div.remainder)});
    }
    return targets && targets->empty() ? 0 : value;
  }

  /// Extract the best-value kernel divisor until none saves literals.
  /// Kernels are enumerated only for functions changed since their last
  /// enumeration; candidates that evaluate unprofitable are dropped and
  /// come back only if a changed function re-yields them.
  bool kernel_phase() {
    bool any = false;
    // Candidate values are cached between rounds: an extraction only
    // rewrites its target functions, so only candidates watching one of
    // those (their support-intersection function list) are re-evaluated.
    struct PoolEntry {
      SopExpr expr;
      long value = 0;
      std::vector<std::uint32_t> watched;
      std::uint64_t eval_round = 0;  // 0: never evaluated
    };
    std::map<std::vector<FCube>, PoolEntry> pool;
    std::vector<std::uint64_t> changed;  // per func: round of last rewrite
    std::uint64_t round = 0;
    while (num_nodes() < kMaxNodes) {
      // One kernel round = one budget unit; the enumeration and evaluation
      // loops below additionally poll the deadline (a first round over a
      // big network can take a long time on its own).
      if (budget_.spend(1)) {
        truncated_ = true;
        break;
      }
      ++round;
      for (std::uint32_t f = 0; f < funcs_.size(); ++f) {
        if (budget_.spend(0)) {
          truncated_ = true;
          break;
        }
        if (!dirty_[f]) continue;
        dirty_[f] = false;
        if (funcs_[f].cubes.size() < 2) continue;
        std::vector<Kernel> ks = enumerate_kernels(funcs_[f], kKernelPairCap);
        ks.erase(std::remove_if(ks.begin(), ks.end(),
                                [&](const Kernel& k) {
                                  return k.kernel.cubes.size() < 2 ||
                                         k.kernel.cubes.size() > kMaxDivisorCubes;
                                }),
                 ks.end());
        // Large functions yield hundreds of kernels; keep the ones with
        // the largest sharing potential (literal mass) to bound the pool.
        if (ks.size() > kMaxKernelsPerFunc) {
          std::partial_sort(ks.begin(), ks.begin() + kMaxKernelsPerFunc,
                            ks.end(), [](const Kernel& a, const Kernel& b) {
                              return a.kernel.num_literals() >
                                     b.kernel.num_literals();
                            });
          ks.resize(kMaxKernelsPerFunc);
        }
        for (Kernel& k : ks) {
          std::vector<FCube> key = k.kernel.cubes;  // key before the move
          pool.emplace(std::move(key), PoolEntry{std::move(k.kernel), 0, {}, 0});
        }
      }

      if (truncated_) break;

      changed.resize(funcs_.size(), 0);
      long best_value = 0;
      const std::vector<FCube>* best = nullptr;
      for (auto it = pool.begin(); it != pool.end();) {
        if (budget_.spend(0)) {
          truncated_ = true;
          break;
        }
        PoolEntry& e = it->second;
        bool stale = e.eval_round == 0;
        for (std::uint32_t f : e.watched)
          stale = stale || changed[f] >= e.eval_round;
        if (stale) {
          e.watched.clear();
          e.value = evaluate_kernel(e.expr, nullptr, &e.watched);
          e.eval_round = round;
          if (e.value <= 0) {
            it = pool.erase(it);
            continue;
          }
        }
        if (e.value > best_value) {
          best_value = e.value;
          best = &it->first;
        }
        ++it;
      }
      if (truncated_) break;
      ++steps_;  // the rewrite below cannot be interrupted
      if (!best) break;

      // Re-evaluate the winner collecting quotients, then rewrite.
      std::vector<KernelTarget> targets;
      const SopExpr divisor = pool.find(*best)->second.expr;
      if (evaluate_kernel(divisor, &targets) <= 0 ||
          targets.empty()) {
        pool.erase(divisor.cubes);
        continue;
      }
      const std::uint32_t nf = new_node(divisor.cubes);
      const LitId x = lit_of_node(nf - num_outputs_);
      for (KernelTarget& t : targets) {
        std::vector<FCube> next = std::move(t.remainder.cubes);
        for (FCube& qc : t.quotient.cubes) {
          qc.push_back(x);  // x is the largest id: stays sorted
          next.push_back(std::move(qc));
        }
        rebuild_func(t.func, std::move(next));
        changed[t.func] = round;
      }
      pool.erase(divisor.cubes);
      any = true;
    }
    return any;
  }

  // --- cleanup + emission ----------------------------------------------------

  /// Inline single-use nodes when doing so does not increase the literal
  /// count: a single-cube node merges into its one using cube; a multi-cube
  /// node replaces a using cube that consists of the bare reference.
  /// Runs to a fixpoint: single-cube inlines rewrite their site in place
  /// (no index shifts, so one pass applies as many as it can validate),
  /// while a multi-cube inline erases a cube and ends the pass, and
  /// cascades (a freed node exposing another single use) land in the next
  /// pass's recount. Only emission follows, so the indexes are not kept
  /// current from here on.
  void cleanup() {
    bool changed = true;
    while (changed) {
      changed = false;
      // Use counts + the single use site per node.
      std::vector<std::size_t> uses(num_nodes(), 0);
      std::vector<CubeRef> site(num_nodes(), CubeRef{0, 0});
      for (std::uint32_t f = 0; f < funcs_.size(); ++f)
        for (std::uint32_t i = 0; i < funcs_[f].cubes.size(); ++i)
          for (LitId l : funcs_[f].cubes[i])
            if (is_node_lit(l, num_vars_)) {
              const std::size_t j = node_of_lit(l, num_vars_);
              if (++uses[j] == 1) site[j] = {f, i};
            }

      bool shifted = false;
      for (std::size_t j = 0; j < num_nodes() && !shifted; ++j) {
        if (uses[j] != 1) continue;
        const SopExpr& def = funcs_[func_of_node(j)];
        if (def.cubes.empty()) continue;
        SopExpr& g = funcs_[site[j].func];
        // An earlier inline this pass may have cleared the using function
        // (the site was inside a now-dead node definition): revalidate.
        if (site[j].idx >= g.cubes.size()) continue;
        FCube& c = g.cubes[site[j].idx];
        const LitId x = lit_of_node(j);
        if (!std::binary_search(c.begin(), c.end(), x)) continue;
        if (def.cubes.size() == 1) {
          FCube rest = cube_difference(c, {x});
          c = cube_union(rest, def.cubes[0]);
          changed = true;
        } else if (c.size() == 1 && c[0] == x) {
          g.cubes.erase(g.cubes.begin() + site[j].idx);
          for (const FCube& dc : def.cubes) g.cubes.push_back(dc);
          changed = true;
          shifted = true;  // cube indices moved: recount before continuing
        } else {
          continue;
        }
        funcs_[func_of_node(j)].cubes.clear();  // dead: dropped at emission
      }
    }
  }

  FactoredNetwork emit() {
    // Liveness + topological order over node references (node definitions
    // may reference nodes created later, after kernel substitution into an
    // older node's body).
    std::vector<int> state(num_nodes(), 0);  // 0 new, 1 open, 2 done
    std::vector<std::size_t> order;
    struct Frame {
      std::size_t node;
      std::size_t seen = 0;
      std::vector<std::size_t> children;  // gathered once per node
    };
    auto gather_children = [&](std::size_t j) {
      std::vector<std::size_t> children;
      for (const FCube& c : funcs_[func_of_node(j)].cubes)
        for (LitId l : c)
          if (is_node_lit(l, num_vars_))
            children.push_back(node_of_lit(l, num_vars_));
      std::sort(children.begin(), children.end());
      children.erase(std::unique(children.begin(), children.end()),
                     children.end());
      return children;
    };
    auto visit = [&](std::size_t root) {
      if (state[root] == 2) return;
      std::vector<Frame> stack;
      stack.push_back({root, 0, gather_children(root)});
      state[root] = 1;
      while (!stack.empty()) {
        Frame& fr = stack.back();
        bool descended = false;
        while (fr.seen < fr.children.size()) {
          const std::size_t ch = fr.children[fr.seen++];
          if (state[ch] == 0) {
            state[ch] = 1;
            stack.push_back({ch, 0, gather_children(ch)});
            descended = true;
            break;
          }
          if (state[ch] == 1)
            throw std::logic_error("extract_factored: node cycle");
        }
        if (descended) continue;
        state[fr.node] = 2;
        order.push_back(fr.node);
        stack.pop_back();
      }
    };
    for (std::size_t b = 0; b < num_outputs_; ++b)
      for (const FCube& c : funcs_[b].cubes)
        for (LitId l : c)
          if (is_node_lit(l, num_vars_)) visit(node_of_lit(l, num_vars_));

    std::vector<std::size_t> remap(num_nodes(), SIZE_MAX);
    for (std::size_t k = 0; k < order.size(); ++k) remap[order[k]] = k;

    auto remap_sop = [&](const SopExpr& s) {
      SopExpr out;
      out.cubes.reserve(s.cubes.size());
      for (const FCube& c : s.cubes) {
        FCube nc;
        nc.reserve(c.size());
        for (LitId l : c)
          nc.push_back(is_node_lit(l, num_vars_)
                           ? node_lit(num_vars_, remap[node_of_lit(l, num_vars_)])
                           : l);
        std::sort(nc.begin(), nc.end());
        out.cubes.push_back(std::move(nc));
      }
      out.normalize();
      return out;
    };

    FactoredNetwork fn;
    fn.num_vars = num_vars_;
    fn.num_outputs = num_outputs_;
    fn.nodes.reserve(order.size());
    for (std::size_t j : order)
      fn.nodes.push_back(remap_sop(funcs_[func_of_node(j)]));
    fn.outputs.reserve(num_outputs_);
    for (std::size_t b = 0; b < num_outputs_; ++b)
      fn.outputs.push_back(remap_sop(funcs_[b]));
    return fn;
  }

  std::size_t num_vars_;
  std::size_t num_outputs_;
  Budget budget_;
  bool truncated_ = false;
  std::uint64_t steps_ = 0;
  std::vector<SopExpr> funcs_;
  std::vector<bool> dirty_;
  PairQueue pairs_;
  std::vector<FuncIndex> func_index_;
  std::vector<CubeRef> slot_cube_;                    // slot -> cube
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<std::uint64_t>> lit_bits_;  // literal -> slots
  std::vector<std::vector<FuncUse>> lit_funcs_;       // literal -> sorted uses
  std::vector<std::uint32_t> reach_seen_;
  std::vector<std::uint32_t> reach_stack_;
  std::uint32_t reach_stamp_ = 0;
};

FactoredNetwork run_extraction(std::size_t num_vars, std::vector<SopExpr> outputs,
                               const Budget& budget, Degradation* degradation) {
  Extractor ex(num_vars, std::move(outputs), budget);
  FactoredNetwork fn = ex.run();
  fn.check();
  if (degradation) {
    degradation->stage = "factor";
    degradation->degraded = ex.truncated();
    degradation->work_done = ex.steps();
    degradation->work_total = 0;  // greedy extraction is open-ended
    if (ex.truncated()) {
      degradation->reason =
          *ex.stop_reason() ? ex.stop_reason() : "work-allowance";
      degradation->detail =
          "divisor extraction stopped early after " +
          std::to_string(fn.num_nodes()) +
          " nodes; partial factorization is exact";
    }
  }
  return fn;
}

}  // namespace

FactoredNetwork extract_factored(const std::vector<Cover>& covers, const Budget& budget,
                                 Degradation* degradation) {
  const std::size_t num_vars = covers.empty() ? 0 : covers[0].num_vars();
  std::vector<SopExpr> outputs(covers.size());
  for (std::size_t b = 0; b < covers.size(); ++b) {
    if (covers[b].num_vars() != num_vars)
      throw std::invalid_argument("extract_factored: mixed cover arities");
    outputs[b].cubes.reserve(covers[b].num_cubes());
    for (const Cube& c : covers[b].cubes())
      outputs[b].cubes.push_back(fcube_from_cube(c, num_vars));
    outputs[b].normalize();
  }
  return run_extraction(num_vars, std::move(outputs), budget, degradation);
}

FactoredNetwork extract_factored(const CubeList& pla, const Budget& budget,
                                 Degradation* degradation) {
  return run_extraction(pla.num_vars(), sops_from_cubelist(pla), budget, degradation);
}

}  // namespace stc
