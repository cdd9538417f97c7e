// Bit-parallel (word-level) evaluation of combinational logic networks.
//
// The classic fault-simulation trick [ROADMAP: "Bit-parallel and sharded
// simulation"]: a signal's value for 64 independent simulations is packed
// into one std::uint64_t — bit L of every word is lane L's run — so one
// pass of word ops (~, &, |, ^) evaluates the whole network for 64 input
// vectors at once. PackedLogicSim levelizes the gate DAG once at
// construction and replays the level-ordered schedule on every eval; the
// schedule is a topological order, so packed lane L computes exactly what
// LogicNetwork::eval_into would compute for lane L's scalar inputs (the
// randomized differential test in tests/bitparallel_test.cpp pins this).
//
// PackedCircuitSim lifts the same trick to a SequentialCircuit: each lane
// is an independent (state, input) pair in the packed 64-bit key encoding
// of model::TestModel, so batch stepping 64 test-model sequences costs one
// network pass instead of 64. Its caller is the external-circuit campaign
// path (pipeline::CircuitReplayStage), which replays every committed
// sequence of a loaded netlist through it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sym/logic_network.hpp"
#include "sym/symbolic_fsm.hpp"

namespace simcov::sym {

class PackedLogicSim {
 public:
  /// Lanes per machine word; partial blocks simply leave high lanes unused.
  static constexpr std::size_t kLanes = 64;

  /// Levelizes `net` (inputs and constants at level 0, every other gate one
  /// past its deepest operand). The network must outlive the simulator.
  explicit PackedLogicSim(const LogicNetwork& net);

  [[nodiscard]] const LogicNetwork& network() const { return *net_; }
  /// Depth of the levelized DAG (0 for a network of bare inputs/constants).
  [[nodiscard]] std::size_t num_levels() const { return num_levels_; }
  [[nodiscard]] std::size_t level(SignalId s) const { return levels_[s]; }

  /// Evaluates all 64 lanes: `input_words[k]` carries the lane values of
  /// input k (bit L = lane L), `values` is resized to num_signals() and
  /// filled with one lane word per signal. Lanes beyond the ones the caller
  /// packed compute garbage-in/garbage-out and are simply ignored on
  /// readback. Throws std::invalid_argument on an input-count mismatch.
  void eval_into(std::span<const std::uint64_t> input_words,
                 std::vector<std::uint64_t>& values) const;

  /// Packs per-lane booleans into a lane word (bit L = lanes[L]).
  [[nodiscard]] static std::uint64_t pack_lanes(std::span<const bool> lanes);

 private:
  const LogicNetwork* net_;
  std::vector<std::uint32_t> levels_;    // per signal
  std::vector<SignalId> schedule_;       // level-major topological order
  std::size_t num_levels_ = 0;
};

/// Word-level batch stepper for a SequentialCircuit: every lane is one
/// independent (state, input) pair, packed little-endian into 64-bit keys
/// exactly as model::TestModel does. Stateless between calls — latches are
/// part of the per-lane state keys the caller threads through — and step()
/// keeps its scratch local, so one simulator may serve every worker of a
/// sharded batch.
class PackedCircuitSim {
 public:
  static constexpr std::size_t kLanes = PackedLogicSim::kLanes;

  /// The circuit must outlive the simulator. Throws std::invalid_argument
  /// beyond 63 latches / primary inputs (the packed-key limit) or when the
  /// circuit breaks the SequentialCircuit contract
  /// (SequentialCircuit::input_sources).
  explicit PackedCircuitSim(const SequentialCircuit& circuit);

  [[nodiscard]] const SequentialCircuit& circuit() const { return *circuit_; }

  /// Steps lanes [0, states.size()) once: lane L starts in state key
  /// states[L] and consumes input key inputs[L]. Returns the mask of lanes
  /// whose (state, input) satisfies the circuit's validity constraint;
  /// next[L] is meaningful for valid lanes only. Spans must agree in size
  /// (at most kLanes).
  std::uint64_t step(std::span<const std::uint64_t> states,
                     std::span<const std::uint64_t> inputs,
                     std::span<std::uint64_t> next) const;

 private:
  const SequentialCircuit* circuit_;
  PackedLogicSim sim_;
  std::vector<SequentialCircuit::InputSource> sources_;
};

}  // namespace simcov::sym
