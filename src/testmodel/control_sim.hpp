// Concrete cycle-level simulator for a built control test model.
//
// Drives the SequentialCircuit of a BuiltTestModel with decoded instruction
// inputs and reads back the named control outputs. Used by tests to check
// the model's stall/squash/forwarding behaviour against the real pipeline,
// and by the validation harness when replaying tours (hot path: all name
// resolution happens once, in the constructor, through ControlInputCodec —
// the one parser of the model's primary-input names).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dlx/isa.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::testmodel {

/// One cycle's worth of test-model primary inputs: the (reduced-format)
/// instruction entering decode plus the datapath status signals.
struct ControlInput {
  dlx::OpClass cls = dlx::OpClass::kNop;
  unsigned rs1 = 0;
  unsigned rs2 = 0;
  unsigned rd = 0;
  bool branch_outcome = false;
  bool instr_valid = true;  ///< only meaningful with a fetch controller
};

/// The primary inputs of a built control model, each resolved once from its
/// name (`op<k>`, `rs1_<k>`, `rs2_<k>`, `rd_<k>`, `branch_outcome`,
/// `instr_valid`) to the ControlInput field and bit it carries. Both
/// directions read this one table: ControlModelSim encodes a ControlInput
/// into PI values, validate::decode_control_input decodes a tour step's PI
/// bit vector back into a ControlInput.
class ControlInputCodec {
 public:
  /// Throws std::logic_error on a primary-input name outside the
  /// vocabulary above.
  explicit ControlInputCodec(const BuiltTestModel& model);

  /// Value primary input `pi` (model PI order) takes for `in`.
  [[nodiscard]] bool pi_value(std::size_t pi, const ControlInput& in) const;

  /// The ControlInput a PI bit vector (model PI order) encodes. Throws
  /// std::invalid_argument when the width is not the model's PI count.
  [[nodiscard]] ControlInput decode(const std::vector<bool>& pi_bits) const;

 private:
  enum class Field : std::uint8_t {
    kOpBit, kRs1Bit, kRs2Bit, kRdBit, kBranchOutcome, kInstrValid,
  };
  struct Role {
    Field field = Field::kOpBit;
    unsigned bit = 0;
  };

  std::vector<Role> roles_;  // by primary-input index
  bool onehot_ = false;      // TestModelOptions::onehot_opclass
  bool fetch_controller_ = false;
};

class ControlModelSim {
 public:
  explicit ControlModelSim(const BuiltTestModel& model);
  ~ControlModelSim();

  /// Evaluates the input constraint for `in` against the *current* state.
  [[nodiscard]] bool input_valid(const ControlInput& in) const;

  /// Applies one clock cycle; returns the named output values sampled
  /// before the edge (also retrievable via out()). Throws std::domain_error
  /// when the input violates the model's validity constraint.
  std::map<std::string, bool> step(const ControlInput& in);

  /// Like step(), but without materializing the name->value map. Output
  /// values are read back with out() / out_index().
  void step_fast(const ControlInput& in);

  /// Value of a named output after the last step. Throws std::out_of_range
  /// for unknown names.
  [[nodiscard]] bool out(const std::string& name) const;
  /// Index-based access for hot loops (resolve once with output_index).
  [[nodiscard]] std::size_t output_index(const std::string& name) const;
  [[nodiscard]] bool out_at(std::size_t index) const {
    return last_outputs_[index];
  }

  void reset();
  [[nodiscard]] const std::vector<bool>& latch_values() const {
    return latches_;
  }

 private:
  void fill_network_inputs(const ControlInput& in) const;

  const BuiltTestModel& model_;
  ControlInputCodec codec_;
  /// How each network input is driven: a latch or a primary input.
  std::vector<sym::SequentialCircuit::InputSource> sources_;
  std::vector<bool> latches_;
  std::vector<bool> last_outputs_;           // by output index
  std::map<std::string, std::size_t> output_index_;
  mutable std::vector<bool> input_scratch_;  // reused network-input buffer
};

}  // namespace simcov::testmodel
