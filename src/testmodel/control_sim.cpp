#include "testmodel/control_sim.hpp"

#include <cstdint>
#include <stdexcept>

namespace simcov::testmodel {

/// How one network input of a built control model is driven: either from a
/// latch (by latch index) or from a field of the decoded ControlInput.
struct ControlModelSim::InputRole {
  enum class Pi : std::uint8_t {
    kOpBit, kRs1Bit, kRs2Bit, kRdBit, kBranchOutcome, kInstrValid,
  };
  bool is_latch = false;
  std::size_t latch_index = 0;  ///< when is_latch
  Pi pi_kind = Pi::kOpBit;
  unsigned pi_bit = 0;

  /// Classifies every network input of the model's circuit, in network
  /// input order, by latch signal id or primary-input name. Throws
  /// std::logic_error on an unmapped primary-input name.
  static std::vector<InputRole> classify(const BuiltTestModel& model);

  /// Value a non-latch role takes for the decoded input `in`. `onehot`
  /// follows TestModelOptions::onehot_opclass.
  [[nodiscard]] bool pi_value(const ControlInput& in, bool onehot) const;
};

std::vector<ControlModelSim::InputRole> ControlModelSim::InputRole::classify(
    const BuiltTestModel& model) {
  const auto& c = model.circuit;
  // Classify every network input as latch or primary input, by signal id.
  std::map<sym::SignalId, std::size_t> latch_of;
  for (std::size_t j = 0; j < c.latches.size(); ++j) {
    latch_of[c.latches[j].current] = j;
  }
  std::map<sym::SignalId, std::string> pi_name;
  const auto net_inputs = c.net.inputs();
  for (std::size_t k = 0; k < net_inputs.size(); ++k) {
    pi_name[net_inputs[k]] = c.net.input_name(k);
  }
  auto parse_pi = [](const std::string& name, InputRole& role) {
    auto suffix_bits = [&](std::size_t prefix_len) {
      return static_cast<unsigned>(std::stoul(name.substr(prefix_len)));
    };
    if (name == "branch_outcome") {
      role.pi_kind = InputRole::Pi::kBranchOutcome;
    } else if (name == "instr_valid") {
      role.pi_kind = InputRole::Pi::kInstrValid;
    } else if (name.rfind("op", 0) == 0) {
      role.pi_kind = InputRole::Pi::kOpBit;
      role.pi_bit = suffix_bits(2);
    } else if (name.rfind("rs1_", 0) == 0) {
      role.pi_kind = InputRole::Pi::kRs1Bit;
      role.pi_bit = suffix_bits(4);
    } else if (name.rfind("rs2_", 0) == 0) {
      role.pi_kind = InputRole::Pi::kRs2Bit;
      role.pi_bit = suffix_bits(4);
    } else if (name.rfind("rd_", 0) == 0) {
      role.pi_kind = InputRole::Pi::kRdBit;
      role.pi_bit = suffix_bits(3);
    } else {
      throw std::logic_error("ControlModelSim: unmapped primary input " +
                             name);
    }
  };
  std::vector<InputRole> roles;
  roles.reserve(net_inputs.size());
  for (sym::SignalId s : net_inputs) {
    InputRole role;
    const auto it = latch_of.find(s);
    if (it != latch_of.end()) {
      role.is_latch = true;
      role.latch_index = it->second;
    } else {
      parse_pi(pi_name[s], role);
    }
    roles.push_back(role);
  }
  return roles;
}

bool ControlModelSim::InputRole::pi_value(const ControlInput& in,
                                          bool onehot) const {
  const unsigned cls_value = static_cast<unsigned>(in.cls);
  switch (pi_kind) {
    case Pi::kOpBit:
      return onehot ? (pi_bit == cls_value)
                    : (((cls_value >> pi_bit) & 1u) != 0);
    case Pi::kRs1Bit:
      return ((in.rs1 >> pi_bit) & 1u) != 0;
    case Pi::kRs2Bit:
      return ((in.rs2 >> pi_bit) & 1u) != 0;
    case Pi::kRdBit:
      return ((in.rd >> pi_bit) & 1u) != 0;
    case Pi::kBranchOutcome:
      return in.branch_outcome;
    case Pi::kInstrValid:
      return in.instr_valid;
  }
  return false;
}

ControlModelSim::ControlModelSim(const BuiltTestModel& model) : model_(model) {
  const auto& c = model_.circuit;
  roles_ = InputRole::classify(model_);
  for (std::size_t k = 0; k < c.outputs.size(); ++k) {
    output_index_[c.outputs[k].first] = k;
  }
  input_scratch_.assign(roles_.size(), false);
  reset();
}

ControlModelSim::~ControlModelSim() = default;

void ControlModelSim::reset() {
  latches_.assign(model_.circuit.latches.size(), false);
  for (std::size_t j = 0; j < latches_.size(); ++j) {
    latches_[j] = model_.circuit.latches[j].init;
  }
  last_outputs_.assign(model_.circuit.outputs.size(), false);
}

void ControlModelSim::fill_network_inputs(const ControlInput& in) const {
  const bool onehot = model_.options.onehot_opclass;
  for (std::size_t k = 0; k < roles_.size(); ++k) {
    const InputRole& role = roles_[k];
    input_scratch_[k] = role.is_latch
                            ? static_cast<bool>(latches_[role.latch_index])
                            : role.pi_value(in, onehot);
  }
}

bool ControlModelSim::input_valid(const ControlInput& in) const {
  fill_network_inputs(in);
  static thread_local std::vector<bool> sig;
  model_.circuit.net.eval_into(input_scratch_, sig);
  return !model_.circuit.valid.has_value() || sig[*model_.circuit.valid];
}

void ControlModelSim::step_fast(const ControlInput& in) {
  fill_network_inputs(in);
  static thread_local std::vector<bool> sig;
  model_.circuit.net.eval_into(input_scratch_, sig);
  if (model_.circuit.valid.has_value() && !sig[*model_.circuit.valid]) {
    throw std::domain_error("ControlModelSim: invalid input combination");
  }
  const auto& outputs = model_.circuit.outputs;
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    last_outputs_[k] = sig[outputs[k].second];
  }
  std::vector<bool> next(latches_.size());
  for (std::size_t j = 0; j < latches_.size(); ++j) {
    next[j] = sig[model_.circuit.latches[j].next];
  }
  latches_ = std::move(next);
}

std::map<std::string, bool> ControlModelSim::step(const ControlInput& in) {
  step_fast(in);
  std::map<std::string, bool> named;
  for (const auto& [name, index] : output_index_) {
    named[name] = last_outputs_[index];
  }
  return named;
}

std::size_t ControlModelSim::output_index(const std::string& name) const {
  const auto it = output_index_.find(name);
  if (it == output_index_.end()) {
    throw std::out_of_range("ControlModelSim: no output named " + name);
  }
  return it->second;
}

bool ControlModelSim::out(const std::string& name) const {
  return last_outputs_[output_index(name)];
}

}  // namespace simcov::testmodel
