#include "errmodel/errmodel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>

#include "runtime/rng.hpp"

namespace simcov::errmodel {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::OutputId;
using fsm::StateId;

fsm::MealyMachine apply_mutation(const MealyMachine& m, const Mutation& mut) {
  const auto t = m.transition(mut.at.state, mut.at.input);
  if (!t.has_value()) {
    throw std::invalid_argument("apply_mutation: transition undefined");
  }
  MealyMachine mutant = m;
  if (mut.kind == ErrorKind::kOutput) {
    if (mut.new_output == t->output) {
      throw std::invalid_argument("apply_mutation: vacuous output mutation");
    }
    mutant.set_transition(mut.at.state, mut.at.input, t->next, mut.new_output);
  } else {
    if (mut.new_next == t->next) {
      throw std::invalid_argument("apply_mutation: vacuous transfer mutation");
    }
    mutant.set_transition(mut.at.state, mut.at.input, mut.new_next, t->output);
  }
  return mutant;
}

std::vector<Mutation> enumerate_output_errors(const MealyMachine& m,
                                              StateId start,
                                              OutputId output_alphabet) {
  std::vector<Mutation> result;
  for (const auto& ref : m.reachable_transitions(start)) {
    const auto t = m.transition(ref.state, ref.input).value();
    for (OutputId o = 0; o < output_alphabet; ++o) {
      if (o == t.output) continue;
      result.push_back(Mutation{ErrorKind::kOutput, ref, 0, o});
    }
  }
  return result;
}

std::vector<Mutation> enumerate_transfer_errors(const MealyMachine& m,
                                                StateId start) {
  std::vector<Mutation> result;
  const auto reachable = m.reachable_states(start);
  for (const auto& ref : m.reachable_transitions(start)) {
    const auto t = m.transition(ref.state, ref.input).value();
    for (StateId s = 0; s < m.num_states(); ++s) {
      if (s == t.next || !reachable[s]) continue;
      result.push_back(Mutation{ErrorKind::kTransfer, ref, s, 0});
    }
  }
  return result;
}

std::vector<Mutation> sample_mutations(const MealyMachine& m, StateId start,
                                       OutputId output_alphabet,
                                       std::size_t count, std::uint64_t seed) {
  // The universe is a mixed-radix index: reachable transition t times K
  // alternatives, index = t * K + a. Alternative a < wrong_outputs is the
  // a-th output in [0, output_alphabet) skipping the original; the rest are
  // the reachable states in ascending order skipping the original next.
  const auto transitions = m.reachable_transitions(start);
  for (const auto& ref : transitions) {
    if (m.transition(ref.state, ref.input)->output >= output_alphabet) {
      throw std::invalid_argument(
          "sample_mutations: a reachable output lies outside the alphabet");
    }
  }
  const auto seen = m.reachable_states(start);
  std::vector<StateId> reachable;
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (seen[s]) reachable.push_back(s);
  }
  if (transitions.empty() || count == 0) return {};
  // Both terms are >= 0: the alphabet holds every reachable output (checked
  // above) and `reachable` holds every reachable source.
  const std::uint64_t wrong_outputs = std::uint64_t{output_alphabet} - 1;
  const std::uint64_t alternatives = wrong_outputs + reachable.size() - 1;
  if (alternatives == 0) return {};
  if (transitions.size() > UINT64_MAX / alternatives) {
    throw std::length_error("sample_mutations: universe exceeds 2^64");
  }
  const std::uint64_t universe = transitions.size() * alternatives;
  const std::uint64_t draws = std::min<std::uint64_t>(count, universe);

  // Floyd's algorithm: `draws` distinct indices, O(draws) work and memory.
  // The set only answers membership; `drawn` keeps the insertion order so
  // the result never depends on hash-table iteration.
  runtime::SplitMix64 rng(seed);
  std::vector<std::uint64_t> drawn;
  drawn.reserve(draws);
  std::unordered_set<std::uint64_t> taken;
  taken.reserve(draws);
  for (std::uint64_t j = universe - draws; j < universe; ++j) {
    const std::uint64_t pick = rng.below(j + 1);
    const std::uint64_t index = taken.contains(pick) ? j : pick;
    taken.insert(index);
    drawn.push_back(index);
  }
  // Floyd's insertion order is biased toward large indices last; a
  // Fisher-Yates pass makes the order uniform too.
  for (std::size_t k = drawn.size(); k > 1; --k) {
    std::swap(drawn[k - 1], drawn[rng.below(k)]);
  }

  std::vector<Mutation> result;
  result.reserve(drawn.size());
  for (const std::uint64_t index : drawn) {
    const fsm::TransitionRef ref = transitions[index / alternatives];
    const std::uint64_t a = index % alternatives;
    const auto t = m.transition(ref.state, ref.input).value();
    if (a < wrong_outputs) {
      const auto o = static_cast<OutputId>(a);
      result.push_back(
          Mutation{ErrorKind::kOutput, ref, 0, o < t.output ? o : o + 1});
    } else {
      const std::size_t b = a - wrong_outputs;
      const auto original = static_cast<std::size_t>(
          std::lower_bound(reachable.begin(), reachable.end(), t.next) -
          reachable.begin());
      result.push_back(Mutation{ErrorKind::kTransfer, ref,
                                reachable[b < original ? b : b + 1], 0});
    }
  }
  return result;
}

bool exposes(const MealyMachine& spec, const MealyMachine& mutant,
             StateId start, std::span<const InputId> inputs) {
  StateId at_spec = start;
  StateId at_mut = start;
  for (InputId i : inputs) {
    const auto ts = spec.transition(at_spec, i);
    const auto tm = mutant.transition(at_mut, i);
    if (ts.has_value() != tm.has_value()) return true;  // definedness mismatch
    if (!ts.has_value()) return false;  // sequence invalid for both: truncate
    if (ts->output != tm->output) return true;
    at_spec = ts->next;
    at_mut = tm->next;
  }
  return false;
}

bool exposes(const MealyMachine& spec, const Mutation& mut, StateId start,
             std::span<const InputId> inputs) {
  const auto original = spec.transition(mut.at.state, mut.at.input);
  if (!original.has_value()) {
    throw std::invalid_argument("exposes: mutated transition undefined");
  }
  fsm::Transition mutated = *original;
  if (mut.kind == ErrorKind::kOutput) {
    mutated.output = mut.new_output;
  } else {
    mutated.next = mut.new_next;
  }
  StateId at_spec = start;
  StateId at_mut = start;
  for (InputId i : inputs) {
    const auto ts = spec.transition(at_spec, i);
    auto tm = spec.transition(at_mut, i);
    if (tm.has_value() && at_mut == mut.at.state && i == mut.at.input) {
      tm = mutated;
    }
    if (ts.has_value() != tm.has_value()) return true;
    if (!ts.has_value()) return false;
    if (ts->output != tm->output) return true;
    at_spec = ts->next;
    at_mut = tm->next;
  }
  return false;
}

PackedMutantBlock::PackedMutantBlock(const MealyMachine& spec,
                                     std::span<const Mutation> block)
    : spec_(&spec), size_(block.size()) {
  if (block.size() > kLanes) {
    throw std::invalid_argument(
        "PackedMutantBlock: more than 64 mutants in a block");
  }
  state_lanes_.resize(spec.num_states(), 0);
  for (std::size_t l = 0; l < block.size(); ++l) {
    const Mutation& mut = block[l];
    const auto original = spec.transition(mut.at.state, mut.at.input);
    if (!original.has_value()) {
      throw std::invalid_argument(
          "PackedMutantBlock: mutated transition undefined");
    }
    site_state_[l] = mut.at.state;
    site_input_[l] = mut.at.input;
    new_next_[l] = mut.new_next;
    new_output_[l] = mut.new_output;
    const std::uint64_t bit = std::uint64_t{1} << l;
    if (mut.kind == ErrorKind::kOutput) output_kind_ |= bit;
    // A vacuous mutation (replacement equals the original) leaves the lane
    // behaving exactly like the spec — it can never be exposed, which is
    // what an unregistered site yields.
    const bool vacuous = mut.kind == ErrorKind::kOutput
                             ? mut.new_output == original->output
                             : mut.new_next == original->next;
    if (!vacuous) {
      state_lanes_[mut.at.state] |= bit;
    }
  }
}

std::uint64_t PackedMutantBlock::exposes(StateId start,
                                         std::span<const InputId> inputs,
                                         std::uint64_t active) const {
  const std::uint64_t lane_mask =
      size_ == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << size_) - 1;
  std::uint64_t undecided = active & lane_mask;
  std::uint64_t lockstep = undecided;  // at_mut == at_spec, site not yet hit
  std::uint64_t diverged = 0;          // transfer mutants walking on their own
  std::uint64_t exposed = 0;
  std::array<StateId, kLanes> at_mut{};
  StateId at_spec = start;

  const MealyMachine& spec = *spec_;
  for (const InputId i : inputs) {
    if (undecided == 0) break;
    const auto ts = spec.transition(at_spec, i);
    // Diverged lanes still pending at the start of this step; lanes that
    // diverge on THIS step consumed input i at the site and must not also
    // walk below.
    const std::uint64_t walk = diverged & undecided;
    if (!ts.has_value()) {
      // Spec truncates here. Lockstep mutants truncate too (unexposed);
      // a diverged mutant is exposed iff its own transition is defined
      // (definedness mismatch).
      for (std::uint64_t w = walk; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        if (spec.transition(at_mut[l], i).has_value()) {
          exposed |= std::uint64_t{1} << l;
        }
      }
      return exposed;
    }
    // Lockstep lanes whose mutation site is the spec's current transition:
    // an output mutant differs right here (non-vacuous, so exposed); a
    // transfer mutant silently branches off to its replacement state. The
    // state-indexed mask keeps the overwhelmingly common no-site step to a
    // single load; the input check happens per candidate lane.
    if (const std::uint64_t in_state =
            state_lanes_[at_spec] & lockstep & undecided;
        in_state != 0) {
      std::uint64_t hit = 0;
      for (std::uint64_t w = in_state; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        if (site_input_[l] == i) hit |= std::uint64_t{1} << l;
      }
      const std::uint64_t out_hit = hit & output_kind_;
      exposed |= out_hit;
      undecided &= ~out_hit;
      for (std::uint64_t w = hit & ~output_kind_; w != 0; w &= w - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(w));
        at_mut[l] = new_next_[l];
      }
      lockstep &= ~hit;
      diverged |= hit & ~output_kind_;
    }
    // Diverged lanes advance one at a time — each is in its own state, so
    // there is nothing word-level left to share beyond the spec's walk.
    for (std::uint64_t w = walk & undecided; w != 0; w &= w - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(w));
      const std::uint64_t bit = std::uint64_t{1} << l;
      auto tm = spec.transition(at_mut[l], i);
      if (tm.has_value() && at_mut[l] == site_state_[l] &&
          i == site_input_[l]) {
        if ((output_kind_ & bit) != 0) {
          tm->output = new_output_[l];
        } else {
          tm->next = new_next_[l];
        }
      }
      if (!tm.has_value() || tm->output != ts->output) {
        exposed |= bit;
        undecided &= ~bit;
        diverged &= ~bit;
        continue;
      }
      at_mut[l] = tm->next;
    }
    at_spec = ts->next;
    // Reconvergence (the paper's Definition 4 masking): a diverged mutant
    // landing back on the spec's state rejoins the lockstep herd.
    for (std::uint64_t w = diverged & undecided; w != 0; w &= w - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(w));
      if (at_mut[l] == at_spec) {
        diverged &= ~(std::uint64_t{1} << l);
        lockstep |= std::uint64_t{1} << l;
      }
    }
  }
  return exposed;
}

bool excites(const MealyMachine& mutant, const Mutation& mut, StateId start,
             std::span<const InputId> inputs) {
  StateId at = start;
  for (InputId i : inputs) {
    if (at == mut.at.state && i == mut.at.input) return true;
    const auto t = mutant.transition(at, i);
    if (!t.has_value()) return false;
    at = t->next;
  }
  return false;
}

TestSetReport evaluate_test_set(const MealyMachine& spec,
                                std::span<const Mutation> mutations,
                                StateId start,
                                std::span<const InputId> inputs) {
  TestSetReport report;
  report.total_mutants = mutations.size();
  report.exposed_flags.resize(mutations.size(), false);
  for (std::size_t k = 0; k < mutations.size(); ++k) {
    const MealyMachine mutant = apply_mutation(spec, mutations[k]);
    if (excites(mutant, mutations[k], start, inputs)) ++report.excited;
    if (exposes(spec, mutant, start, inputs)) {
      report.exposed_flags[k] = true;
      ++report.exposed;
    }
  }
  return report;
}

TestSetReport evaluate_test_set(
    const MealyMachine& spec, std::span<const Mutation> mutations,
    StateId start, const std::vector<std::vector<InputId>>& sequences) {
  TestSetReport report;
  report.total_mutants = mutations.size();
  report.exposed_flags.resize(mutations.size(), false);
  for (std::size_t k = 0; k < mutations.size(); ++k) {
    const MealyMachine mutant = apply_mutation(spec, mutations[k]);
    bool excited = false;
    bool exposed = false;
    for (const auto& seq : sequences) {
      excited = excited || excites(mutant, mutations[k], start, seq);
      exposed = exposed || exposes(spec, mutant, start, seq);
      if (excited && exposed) break;
    }
    if (excited) ++report.excited;
    if (exposed) {
      report.exposed_flags[k] = true;
      ++report.exposed;
    }
  }
  return report;
}

MaskingAnalysis analyze_masking(const MealyMachine& spec,
                                const MealyMachine& mutant, StateId start,
                                std::span<const InputId> inputs) {
  MaskingAnalysis result;
  StateId at_spec = start;
  StateId at_mut = start;
  std::size_t step = 0;
  for (InputId i : inputs) {
    const auto ts = spec.transition(at_spec, i);
    const auto tm = mutant.transition(at_mut, i);
    if (!ts.has_value() || !tm.has_value()) break;
    if (ts->output != tm->output) result.output_differed = true;
    at_spec = ts->next;
    at_mut = tm->next;
    ++step;
    if (at_spec != at_mut && !result.diverged) {
      result.diverged = true;
      result.diverge_step = step;
    } else if (at_spec == at_mut && result.diverged && !result.reconverged) {
      result.reconverged = true;
      result.reconverge_step = step;
    }
  }
  return result;
}

}  // namespace simcov::errmodel
