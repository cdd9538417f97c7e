#include "testmodel/control_sim.hpp"

#include <stdexcept>

namespace simcov::testmodel {

ControlInputCodec::ControlInputCodec(const BuiltTestModel& model)
    : roles_(model.circuit.primary_inputs.size()),
      onehot_(model.options.onehot_opclass),
      fetch_controller_(model.options.fetch_controller) {
  const auto& c = model.circuit;
  const auto sources = c.input_sources();
  for (std::size_t k = 0; k < sources.size(); ++k) {
    if (sources[k].is_latch) continue;
    const std::string name = c.net.input_name(k);
    Role& role = roles_[sources[k].index];
    auto suffix_bit = [&](std::size_t prefix_len) {
      return static_cast<unsigned>(std::stoul(name.substr(prefix_len)));
    };
    if (name == "branch_outcome") {
      role.field = Field::kBranchOutcome;
    } else if (name == "instr_valid") {
      role.field = Field::kInstrValid;
    } else if (name.rfind("op", 0) == 0) {
      role = {Field::kOpBit, suffix_bit(2)};
    } else if (name.rfind("rs1_", 0) == 0) {
      role = {Field::kRs1Bit, suffix_bit(4)};
    } else if (name.rfind("rs2_", 0) == 0) {
      role = {Field::kRs2Bit, suffix_bit(4)};
    } else if (name.rfind("rd_", 0) == 0) {
      role = {Field::kRdBit, suffix_bit(3)};
    } else {
      throw std::logic_error("ControlInputCodec: unmapped primary input " +
                             name);
    }
  }
}

bool ControlInputCodec::pi_value(std::size_t pi, const ControlInput& in) const {
  const Role& role = roles_[pi];
  switch (role.field) {
    case Field::kOpBit: {
      const auto cls = static_cast<unsigned>(in.cls);
      return onehot_ ? role.bit == cls : ((cls >> role.bit) & 1u) != 0;
    }
    case Field::kRs1Bit:
      return ((in.rs1 >> role.bit) & 1u) != 0;
    case Field::kRs2Bit:
      return ((in.rs2 >> role.bit) & 1u) != 0;
    case Field::kRdBit:
      return ((in.rd >> role.bit) & 1u) != 0;
    case Field::kBranchOutcome:
      return in.branch_outcome;
    case Field::kInstrValid:
      return in.instr_valid;
  }
  return false;
}

ControlInput ControlInputCodec::decode(const std::vector<bool>& pi_bits) const {
  if (pi_bits.size() != roles_.size()) {
    throw std::invalid_argument("decode_control_input: width mismatch");
  }
  ControlInput in;
  // Without a fetch controller there is no instr_valid input and the field
  // keeps its default.
  if (fetch_controller_) in.instr_valid = false;
  unsigned cls = 0;
  for (std::size_t p = 0; p < roles_.size(); ++p) {
    if (!pi_bits[p]) continue;
    const Role& role = roles_[p];
    switch (role.field) {
      case Field::kOpBit:
        cls = onehot_ ? role.bit : cls | (1u << role.bit);
        break;
      case Field::kRs1Bit:
        in.rs1 |= 1u << role.bit;
        break;
      case Field::kRs2Bit:
        in.rs2 |= 1u << role.bit;
        break;
      case Field::kRdBit:
        in.rd |= 1u << role.bit;
        break;
      case Field::kBranchOutcome:
        in.branch_outcome = true;
        break;
      case Field::kInstrValid:
        in.instr_valid = true;
        break;
    }
  }
  in.cls = static_cast<dlx::OpClass>(cls);
  return in;
}

ControlModelSim::ControlModelSim(const BuiltTestModel& model)
    : model_(model), codec_(model), sources_(model.circuit.input_sources()) {
  const auto& c = model_.circuit;
  for (std::size_t k = 0; k < c.outputs.size(); ++k) {
    output_index_[c.outputs[k].first] = k;
  }
  input_scratch_.assign(sources_.size(), false);
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
  for (std::size_t k = 0; k < sources_.size(); ++k) {
    const auto& source = sources_[k];
    input_scratch_[k] = source.is_latch
                            ? static_cast<bool>(latches_[source.index])
                            : codec_.pi_value(source.index, in);
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
