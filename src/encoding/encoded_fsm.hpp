#pragma once
// Encoded FSM: the boolean specification obtained from a symbolic machine
// plus a state encoding. Each encoder emits its block in cube form, as a
// PlaSpec (logic/cubelist.hpp): one ON cube per transition, compact DC
// cubes for unused codes and padding inputs. That spec is the only block
// input of the flow: bist/architectures minimizes and factors every block
// from it, and no stage reads a truth table.
//
// Minterm layout convention used everywhere downstream:
//     minterm = (state_code << input_bits) | input_bits_value
// i.e. primary inputs occupy the LOW bits, present-state bits the HIGH
// bits. Input symbol values are their KISS2 bit patterns.

#include <memory>
#include <vector>

#include "encoding/encoding.hpp"
#include "logic/block.hpp"
#include "logic/cubelist.hpp"

namespace stc {

/// The fields are treated as immutable after encode_fsm: copies share one
/// block memo, which serves results computed from this specification, so
/// an edited copy would be handed blocks of the original machine. Build a
/// changed machine with a new encode_fsm instead.
struct EncodedFsm {
  std::size_t state_bits = 0;
  std::size_t input_bits = 0;
  std::size_t output_bits = 0;
  std::uint64_t reset_code = 0;
  /// Dense view of the same specification, one table per state bit and
  /// per output bit. Tests and perfbench's traced probe read it as an
  /// oracle; no flow stage does.
  std::vector<TruthTable> next_state;
  std::vector<TruthTable> outputs;
  /// The block C of figs. 1-3: one ON cube per transition whose output
  /// part spans the next-state bits (low) and the output bits (high), plus
  /// compact DC cubes (one whole-row cube per unused state code, one
  /// minterm cube per padding input pattern). At most 20 state bits and
  /// 32 output bits (kMaxOutputBits), so every output fits its 64-bit
  /// output part.
  PlaSpec spec;
  /// Stored minimized / factored forms of the combined (next-state,
  /// outputs) block, shared by the fig1-3 builders (bist/architectures).
  /// Never null: each constructed EncodedFsm gets its own memo, every
  /// copy shares it, and it is freed with the last one.
  std::shared_ptr<BlockMemo> block_memo = std::make_shared<BlockMemo>();

  std::size_t num_vars() const { return state_bits + input_bits; }
};

/// Encode `fsm` under `enc`. Unused state codes (and, for one-hot, all
/// non-code patterns) become don't-cares of every output.
EncodedFsm encode_fsm(const MealyMachine& fsm, const Encoding& enc);

/// Encoded form of one half-machine of a pipeline realization:
/// a function table `f : domain_states x I -> range_states` (delta1 or
/// delta2 of FactorTables), with independent encodings on each side.
struct EncodedFactor {
  std::size_t in_state_bits = 0;   // bits of the domain register
  std::size_t out_state_bits = 0;  // bits of the range register
  std::size_t input_bits = 0;
  PlaSpec spec;  // outputs = range-register bits

  std::size_t num_vars() const { return in_state_bits + input_bits; }
};

/// Encode `table[s * num_inputs + i] -> target state` where domain states
/// use `dom` codes and targets use `rng` codes.
EncodedFactor encode_factor(const std::vector<State>& table, std::size_t num_inputs,
                            std::size_t input_bits, const Encoding& dom,
                            const Encoding& rng);

/// Encoded output function lambda*(s1, s2, i) of a realization: variable
/// order (low to high) = inputs, then R2 bits, then R1 bits.
struct EncodedLambda {
  std::size_t s1_bits = 0;
  std::size_t s2_bits = 0;
  std::size_t input_bits = 0;
  std::size_t output_bits = 0;
  PlaSpec spec;  // outputs = output bits

  std::size_t num_vars() const { return s1_bits + s2_bits + input_bits; }
};

EncodedLambda encode_lambda(const std::vector<Output>& lambda, std::size_t n1,
                            std::size_t n2, std::size_t num_inputs,
                            std::size_t input_bits, std::size_t output_bits,
                            const Encoding& enc1, const Encoding& enc2);

}  // namespace stc
