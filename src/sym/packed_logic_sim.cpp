#include "sym/packed_logic_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace simcov::sym {

// ---------------------------------------------------------------------------
// PackedLogicSim
// ---------------------------------------------------------------------------

PackedLogicSim::PackedLogicSim(const LogicNetwork& net) : net_(&net) {
  const std::size_t n = net.num_signals();
  levels_.assign(n, 0);
  for (SignalId s = 0; s < n; ++s) {
    const auto g = net.gate(s);
    std::uint32_t lvl = 0;
    switch (g.op) {
      case GateOp::kInput:
      case GateOp::kConst:
        break;
      case GateOp::kNot:
        lvl = levels_[g.a] + 1;
        break;
      case GateOp::kAnd:
      case GateOp::kOr:
      case GateOp::kXor:
        lvl = std::max(levels_[g.a], levels_[g.b]) + 1;
        break;
      case GateOp::kMux:
        lvl = std::max({levels_[g.a], levels_[g.b], levels_[g.c]}) + 1;
        break;
    }
    levels_[s] = lvl;
    num_levels_ = std::max<std::size_t>(num_levels_, lvl);
  }
  // Level-major schedule via a counting sort: gates of one level are
  // independent and keep their id order within it, so the pass is both a
  // valid topological order and deterministic.
  std::vector<std::size_t> level_counts(num_levels_ + 1, 0);
  for (SignalId s = 0; s < n; ++s) ++level_counts[levels_[s]];
  std::vector<std::size_t> offsets(num_levels_ + 1, 0);
  for (std::size_t l = 1; l <= num_levels_; ++l) {
    offsets[l] = offsets[l - 1] + level_counts[l - 1];
  }
  schedule_.resize(n);
  for (SignalId s = 0; s < n; ++s) {
    schedule_[offsets[levels_[s]]++] = s;
  }
}

std::uint64_t PackedLogicSim::pack_lanes(std::span<const bool> lanes) {
  std::uint64_t word = 0;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    if (lanes[l]) word |= std::uint64_t{1} << l;
  }
  return word;
}

void PackedLogicSim::eval_into(std::span<const std::uint64_t> input_words,
                               std::vector<std::uint64_t>& values) const {
  const LogicNetwork& net = *net_;
  if (input_words.size() != net.num_inputs()) {
    throw std::invalid_argument(
        "PackedLogicSim::eval_into: input count mismatch");
  }
  values.assign(net.num_signals(), 0);
  std::uint64_t* val = values.data();
  for (const SignalId s : schedule_) {
    const auto g = net.gate(s);
    switch (g.op) {
      case GateOp::kInput:
        val[s] = input_words[g.a];
        break;
      case GateOp::kConst:
        val[s] = g.a != 0 ? ~std::uint64_t{0} : 0;
        break;
      case GateOp::kNot:
        val[s] = ~val[g.a];
        break;
      case GateOp::kAnd:
        val[s] = val[g.a] & val[g.b];
        break;
      case GateOp::kOr:
        val[s] = val[g.a] | val[g.b];
        break;
      case GateOp::kXor:
        val[s] = val[g.a] ^ val[g.b];
        break;
      case GateOp::kMux:
        val[s] = (val[g.a] & val[g.b]) | (~val[g.a] & val[g.c]);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// PackedCircuitSim
// ---------------------------------------------------------------------------

PackedCircuitSim::PackedCircuitSim(const SequentialCircuit& circuit)
    : circuit_(&circuit), sim_(circuit.net), sources_(circuit.input_sources()) {
  if (circuit.latches.size() > 63 || circuit.primary_inputs.size() > 63) {
    throw std::invalid_argument(
        "PackedCircuitSim: too many variables for packed 64-bit keys");
  }
}

std::uint64_t PackedCircuitSim::step(std::span<const std::uint64_t> states,
                                     std::span<const std::uint64_t> inputs,
                                     std::span<std::uint64_t> next) const {
  const std::size_t lanes = states.size();
  if (lanes > kLanes || inputs.size() != lanes || next.size() != lanes) {
    throw std::invalid_argument("PackedCircuitSim::step: lane span mismatch");
  }
  // Transpose the per-lane keys into per-signal lane words: network input k
  // gets bit L from bit sources_[k].index of lane L's state or input key.
  std::vector<std::uint64_t> input_words(sources_.size(), 0);
  for (std::size_t k = 0; k < sources_.size(); ++k) {
    const std::uint32_t bit = sources_[k].index;
    std::uint64_t word = 0;
    if (sources_[k].is_latch) {
      for (std::size_t l = 0; l < lanes; ++l) {
        word |= ((states[l] >> bit) & 1u) << l;
      }
    } else {
      for (std::size_t l = 0; l < lanes; ++l) {
        word |= ((inputs[l] >> bit) & 1u) << l;
      }
    }
    input_words[k] = word;
  }
  std::vector<std::uint64_t> values;
  sim_.eval_into(input_words, values);

  const std::uint64_t lane_mask =
      lanes == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  const std::uint64_t valid =
      circuit_->valid.has_value()
          ? values[*circuit_->valid] & lane_mask
          : lane_mask;

  // Transpose back: bit L of next-state signal j becomes bit j of next[L].
  for (std::size_t l = 0; l < lanes; ++l) next[l] = 0;
  for (std::size_t j = 0; j < circuit_->latches.size(); ++j) {
    const std::uint64_t word = values[circuit_->latches[j].next];
    for (std::size_t l = 0; l < lanes; ++l) {
      next[l] |= ((word >> l) & 1u) << j;
    }
  }
  return valid;
}

}  // namespace simcov::sym
