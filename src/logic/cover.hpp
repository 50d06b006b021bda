#pragma once
// Sum-of-products covers and single-output truth tables.
//
// TruthTable is the dense (on/dc bitset) view of one output: the oracle
// the tests check covers against, and EncodedFsm's dense view. The flow
// specifies its blocks in cube form instead (PlaSpec, logic/cubelist.hpp)
// and never enumerates a table. Cover is the cube-list result.

#include <vector>

#include "logic/cube.hpp"
#include "util/bitvec.hpp"

namespace stc {

/// Single-output incompletely specified function over n variables.
class TruthTable {
 public:
  TruthTable() = default;
  TruthTable(std::size_t num_vars);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_minterms() const { return std::size_t{1} << num_vars_; }

  void set_on(Minterm m) { on_.set(m, true); }
  void set_dc(Minterm m) { dc_.set(m, true); }

  bool is_on(Minterm m) const { return on_.get(m); }
  bool is_dc(Minterm m) const { return dc_.get(m); }
  bool is_off(Minterm m) const { return !on_.get(m) && !dc_.get(m); }

  std::size_t on_count() const { return on_.count(); }
  std::size_t dc_count() const { return dc_.count(); }

  std::vector<Minterm> on_minterms() const;
  std::vector<Minterm> dc_minterms() const;
  std::vector<Minterm> off_minterms() const;

 private:
  std::size_t num_vars_ = 0;
  BitVec on_, dc_;
};

/// A cube list interpreted as an OR of ANDs.
class Cover {
 public:
  Cover() = default;
  explicit Cover(std::size_t num_vars) : num_vars_(num_vars) {}

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_cubes() const { return cubes_.size(); }
  std::size_t num_literals() const;
  bool empty() const { return cubes_.empty(); }

  const std::vector<Cube>& cubes() const { return cubes_; }
  void add(const Cube& c) { cubes_.push_back(c); }

  bool evaluate(Minterm m) const;

  /// Exact containment check against a truth table: the cover must be 1 on
  /// every ON minterm and 0 on every OFF minterm (DC free).
  bool implements(const TruthTable& tt) const;

  /// Remove duplicate and single-cube-contained cubes (cheap cleanup; not
  /// a full irredundant-cover computation).
  void remove_contained();

  std::string to_string() const;

 private:
  std::size_t num_vars_ = 0;
  std::vector<Cube> cubes_;
};

}  // namespace stc
