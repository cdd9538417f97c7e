#include "sym/symbolic_fsm.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <stdexcept>

namespace simcov::sym {

std::vector<SequentialCircuit::InputSource> SequentialCircuit::input_sources()
    const {
  std::map<SignalId, InputSource> by_signal;
  auto declare = [&](SignalId s, InputSource source) {
    if (!by_signal.emplace(s, source).second) {
      throw std::invalid_argument(
          "SequentialCircuit: signal declared twice (latch or primary "
          "input)");
    }
  };
  for (std::size_t j = 0; j < latches.size(); ++j) {
    declare(latches[j].current, {true, static_cast<std::uint32_t>(j)});
  }
  for (std::size_t k = 0; k < primary_inputs.size(); ++k) {
    declare(primary_inputs[k], {false, static_cast<std::uint32_t>(k)});
  }
  const auto net_inputs = net.inputs();
  std::vector<InputSource> sources;
  sources.reserve(net_inputs.size());
  for (const SignalId s : net_inputs) {
    const auto it = by_signal.find(s);
    if (it == by_signal.end()) {
      throw std::invalid_argument(
          "SequentialCircuit: undeclared network input (neither latch nor "
          "primary input)");
    }
    sources.push_back(it->second);
  }
  return sources;
}

SymbolicFsm::SymbolicFsm(bdd::BddManager& mgr, const SequentialCircuit& c)
    : mgr_(mgr) {
  const auto sources = c.input_sources();
  const std::size_t num_pi = c.primary_inputs.size();
  const std::size_t num_latch = c.latches.size();

  // Initial variable order: PIs first, then ps/ns interleaved per latch.
  // These are stable var ids — sifting may later move their levels, but the
  // ids recorded here stay valid for the life of the manager.
  pi_vars_.resize(num_pi);
  for (std::size_t k = 0; k < num_pi; ++k) pi_vars_[k] = static_cast<unsigned>(k);
  ps_vars_.resize(num_latch);
  ns_vars_.resize(num_latch);
  for (std::size_t j = 0; j < num_latch; ++j) {
    ps_vars_[j] = static_cast<unsigned>(num_pi + 2 * j);
    ns_vars_[j] = static_cast<unsigned>(num_pi + 2 * j + 1);
  }

  // Symbolic inputs for the network.
  std::vector<bdd::Bdd> input_funcs;
  input_funcs.reserve(sources.size());
  for (const auto& [is_latch, index] : sources) {
    input_funcs.push_back(
        mgr_.var(is_latch ? ps_vars_[index] : pi_vars_[index]));
  }
  const std::vector<bdd::Bdd> sig = c.net.eval_bdd(mgr_, input_funcs);

  valid_ = c.valid.has_value() ? sig[*c.valid] : mgr_.one();

  next_funcs_.reserve(num_latch);
  for (const auto& latch : c.latches) next_funcs_.push_back(sig[latch.next]);
  out_funcs_.reserve(c.outputs.size());
  for (const auto& [name, s] : c.outputs) out_funcs_.push_back(sig[s]);

  // Transition relation.
  tr_ = valid_;
  for (std::size_t j = 0; j < num_latch; ++j) {
    tr_ &= mgr_.var(ns_vars_[j]).iff(next_funcs_[j]);
  }

  // Initial state.
  init_bits_.resize(num_latch);
  for (std::size_t j = 0; j < num_latch; ++j) {
    init_bits_[j] = c.latches[j].init;
  }
  init_ = mgr_.minterm(ps_vars_, init_bits_);

  // Quantification cubes and the ns -> ps renaming.
  std::vector<unsigned> ps_pi(ps_vars_);
  ps_pi.insert(ps_pi.end(), pi_vars_.begin(), pi_vars_.end());
  ps_pi_cube_ = mgr_.cube(ps_pi);
  pi_cube_ = mgr_.cube(pi_vars_);
  ps_cube_ = mgr_.cube(ps_vars_);
  std::vector<unsigned> ns_pi(ns_vars_);
  ns_pi.insert(ns_pi.end(), pi_vars_.begin(), pi_vars_.end());
  ns_pi_cube_ = mgr_.cube(ns_pi);
  const unsigned max_var = static_cast<unsigned>(num_pi + 2 * num_latch);
  ns_to_ps_.assign(max_var, -1);
  ps_to_ns_.assign(max_var, -1);
  for (unsigned v = 0; v < max_var; ++v) {
    ns_to_ps_[v] = static_cast<int>(v);
    ps_to_ns_[v] = static_cast<int>(v);
  }
  for (std::size_t j = 0; j < num_latch; ++j) {
    ns_to_ps_[ns_vars_[j]] = static_cast<int>(ps_vars_[j]);
    ps_to_ns_[ps_vars_[j]] = static_cast<int>(ns_vars_[j]);
  }
}

std::vector<bool> SymbolicFsm::initial_state_bits() const {
  return init_bits_;
}

std::uint64_t SymbolicFsm::initial_state_key() const {
  std::uint64_t key = 0;
  for (std::size_t j = 0; j < init_bits_.size(); ++j) {
    if (init_bits_[j]) key |= std::uint64_t{1} << j;
  }
  return key;
}

bdd::Bdd SymbolicFsm::state_minterm(std::uint64_t state) {
  std::vector<bool> bits(ps_vars_.size());
  for (std::size_t j = 0; j < bits.size(); ++j) bits[j] = (state >> j) & 1u;
  return mgr_.minterm(ps_vars_, bits);
}

std::uint64_t SymbolicFsm::eval_packed(std::span<const bdd::Bdd> funcs,
                                       std::uint64_t state,
                                       std::uint64_t input) {
  // Keep the scratch sized to the manager: callers may evaluate functions
  // built after later variable allocations.
  if (assignment_.size() < mgr_.var_count()) {
    assignment_.resize(mgr_.var_count(), false);
  }
  for (std::size_t j = 0; j < ps_vars_.size(); ++j) {
    assignment_[ps_vars_[j]] = (state >> j) & 1u;
  }
  for (std::size_t k = 0; k < pi_vars_.size(); ++k) {
    assignment_[pi_vars_[k]] = (input >> k) & 1u;
  }
  std::uint64_t out = 0;
  for (std::size_t j = 0; j < funcs.size(); ++j) {
    if (mgr_.eval(funcs[j], assignment_)) out |= std::uint64_t{1} << j;
  }
  return out;
}

std::vector<PackedEdge> SymbolicFsm::successors(std::uint64_t state) {
  std::vector<PackedEdge> out;
  const bdd::Bdd at_state = mgr_.constrain(valid_, state_minterm(state));
  mgr_.for_each_minterm(at_state, pi_vars_, [&](const std::vector<bool>& in) {
    std::uint64_t input = 0;
    for (std::size_t k = 0; k < in.size(); ++k) {
      if (in[k]) input |= std::uint64_t{1} << k;
    }
    out.push_back(PackedEdge{input, eval_packed(next_funcs_, state, input)});
    return true;
  });
  return out;
}

bdd::Bdd SymbolicFsm::image(const bdd::Bdd& states) {
  const bdd::Bdd next = mgr_.and_exists(tr_, states, ps_pi_cube_);
  return mgr_.permute(next, ns_to_ps_);
}

bdd::Bdd SymbolicFsm::preimage(const bdd::Bdd& states) {
  const bdd::Bdd over_ns = mgr_.permute(states, ps_to_ns_);
  return mgr_.and_exists(tr_, over_ns, ns_pi_cube_);
}

const bdd::Bdd& SymbolicFsm::reachable_states() {
  if (reached_valid_) return reached_;
  bdd::Bdd reached = init_;
  bdd::Bdd frontier = init_;
  iters_ = 0;
  while (!frontier.is_zero()) {
    ++iters_;
    const bdd::Bdd next = image(frontier);
    frontier = next & !reached;
    reached |= next;
  }
  reached_ = reached;
  reached_valid_ = true;
  return reached_;
}

double SymbolicFsm::count_states(const bdd::Bdd& states) const {
  // States live on ps vars; PI vars may appear below them in the order but
  // are absent from state predicates, so count over latch count only.
  // sat_count over all vars then divide by the share of non-ps vars:
  // simpler: count minterms over the ps variables only.
  // sat_count(f, num_vars) counts over "num_vars" total variables assuming
  // f's support is within them; our ps vars are not a prefix, so normalize:
  // count over ALL variables then divide by 2^(#non-ps).
  const unsigned total = static_cast<unsigned>(pi_vars_.size()) +
                         2 * static_cast<unsigned>(ps_vars_.size());
  const double all = mgr_.sat_count(states, total);
  const double non_ps = static_cast<double>(total - ps_vars_.size());
  return all / std::exp2(non_ps);
}

double SymbolicFsm::count_transitions(const bdd::Bdd& states) const {
  const bdd::Bdd pairs = mgr_.apply_and(states, valid_);
  const unsigned total = static_cast<unsigned>(pi_vars_.size()) +
                         2 * static_cast<unsigned>(ps_vars_.size());
  const double all = mgr_.sat_count(pairs, total);
  // Support is within ps ∪ pi; divide away the ns share.
  return all / std::exp2(static_cast<double>(ps_vars_.size()));
}

double SymbolicFsm::count_valid_input_combinations() {
  const bdd::Bdd over_pi = mgr_.exists(valid_, ps_cube_);
  const unsigned total = static_cast<unsigned>(pi_vars_.size()) +
                         2 * static_cast<unsigned>(ps_vars_.size());
  const double all = mgr_.sat_count(over_pi, total);
  return all / std::exp2(static_cast<double>(2 * ps_vars_.size()));
}

SymbolicFsmStats SymbolicFsm::stats() {
  SymbolicFsmStats s;
  s.num_latches = num_latches();
  s.num_primary_inputs = num_inputs();
  s.num_outputs = static_cast<unsigned>(out_funcs_.size());
  s.transition_relation_nodes = mgr_.node_count(tr_);
  const bdd::Bdd& reached = reachable_states();
  s.reachability_iterations = iters_;
  s.reachable_states = count_states(reached);
  s.transitions = count_transitions(reached);
  s.valid_input_combinations = count_valid_input_combinations();
  return s;
}

SymbolicFsm::InvariantResult SymbolicFsm::check_invariant(
    const bdd::Bdd& good) {
  InvariantResult result;
  const bdd::Bdd bad = !good;

  // Layered forward search so counterexamples are shortest.
  std::vector<bdd::Bdd> layers{init_};
  bdd::Bdd reached = init_;
  std::size_t bad_layer = 0;
  bool violated = mgr_.intersects(init_, bad);
  while (!violated) {
    const bdd::Bdd next = image(layers.back());
    const bdd::Bdd frontier = next & !reached;
    if (frontier.is_zero()) {
      result.holds = true;
      return result;  // fixpoint: every reachable state is good
    }
    reached |= frontier;
    layers.push_back(frontier);
    if (mgr_.intersects(frontier, bad)) {
      violated = true;
      bad_layer = layers.size() - 1;
    }
  }

  // Walk the layers backwards picking one concrete state per step.
  Trace trace;
  trace.states.resize(bad_layer + 1);
  trace.inputs.resize(bad_layer);
  bdd::Bdd at = layers[bad_layer] & bad;
  auto pick_state = [&](const bdd::Bdd& set) {
    return *mgr_.pick_minterm(set, ps_vars_);
  };
  trace.states[bad_layer] = pick_state(at);
  for (std::size_t k = bad_layer; k-- > 0;) {
    const bdd::Bdd succ =
        mgr_.minterm(ps_vars_, trace.states[k + 1]);
    const bdd::Bdd pred = preimage(succ) & layers[k];
    trace.states[k] = pick_state(pred);
    // The input taken: any PI assignment consistent with this step.
    const bdd::Bdd step = tr_ & mgr_.minterm(ps_vars_, trace.states[k]) &
                          mgr_.permute(succ, ps_to_ns_);
    trace.inputs[k] = *mgr_.pick_minterm(step, pi_vars_);
  }
  result.counterexample = std::move(trace);
  return result;
}

// ---------------------------------------------------------------------------
// Explicit extraction
// ---------------------------------------------------------------------------

ExplicitModel extract_explicit(const SequentialCircuit& c,
                               std::size_t max_states) {
  const auto sources = c.input_sources();
  const std::size_t num_pi = c.primary_inputs.size();
  const std::size_t num_latch = c.latches.size();
  if (num_pi > 24) {
    throw std::invalid_argument(
        "extract_explicit: too many primary inputs for explicit enumeration");
  }

  // Pass 1 (symbolic): the global valid input alphabet = PI combinations
  // valid in at least one state.
  ExplicitModel model;
  {
    bdd::BddManager mgr;
    SymbolicFsm sym(mgr, c);
    std::vector<unsigned> pi_vars(num_pi);
    for (std::size_t k = 0; k < num_pi; ++k) pi_vars[k] = sym.pi_var(k);
    std::vector<unsigned> ps_vars(num_latch);
    for (std::size_t j = 0; j < num_latch; ++j) ps_vars[j] = sym.ps_var(j);
    const bdd::Bdd over_pi = mgr.exists(sym.valid_inputs(), mgr.cube(ps_vars));
    mgr.for_each_minterm(over_pi, pi_vars, [&](const std::vector<bool>& v) {
      model.input_bits.push_back(v);
      return true;
    });
  }
  const std::size_t num_symbols = model.input_bits.size();

  // Pass 2 (concrete): BFS over latch-value vectors.
  auto net_input_vector = [&](const std::vector<bool>& state,
                              const std::vector<bool>& pi) {
    std::vector<bool> v(sources.size());
    for (std::size_t k = 0; k < sources.size(); ++k) {
      const auto& [is_latch, index] = sources[k];
      v[k] = is_latch ? state[index] : pi[index];
    }
    return v;
  };

  std::map<std::vector<bool>, fsm::StateId> state_id;
  struct PendingTransition {
    fsm::StateId from;
    fsm::InputId input;
    fsm::StateId to;
    fsm::OutputId output;
  };
  std::vector<PendingTransition> transitions;

  std::vector<bool> init(num_latch);
  for (std::size_t j = 0; j < num_latch; ++j) init[j] = c.latches[j].init;
  state_id.emplace(init, 0);
  model.state_bits.push_back(init);
  std::deque<fsm::StateId> queue{0};

  std::vector<bool> values;
  while (!queue.empty()) {
    const fsm::StateId sid = queue.front();
    queue.pop_front();
    const std::vector<bool> state = model.state_bits[sid];
    for (std::size_t sym_id = 0; sym_id < num_symbols; ++sym_id) {
      c.net.eval_into(net_input_vector(state, model.input_bits[sym_id]),
                      values);
      if (c.valid.has_value() && !values[*c.valid]) continue;  // invalid here
      std::vector<bool> next(num_latch);
      for (std::size_t j = 0; j < num_latch; ++j) {
        next[j] = values[c.latches[j].next];
      }
      fsm::OutputId out = 0;
      if (c.outputs.size() > 31) {
        throw std::invalid_argument(
            "extract_explicit: too many outputs to pack into an OutputId");
      }
      for (std::size_t b = 0; b < c.outputs.size(); ++b) {
        if (values[c.outputs[b].second]) out |= fsm::OutputId{1} << b;
      }
      auto [it, inserted] =
          state_id.emplace(next, static_cast<fsm::StateId>(state_id.size()));
      if (inserted) {
        if (state_id.size() > max_states) {
          model.truncated = true;
          state_id.erase(it);
          continue;
        }
        model.state_bits.push_back(next);
        queue.push_back(it->second);
      }
      if (!model.truncated || !inserted) {
        transitions.push_back({sid, static_cast<fsm::InputId>(sym_id),
                               it->second, out});
      }
    }
  }

  fsm::MealyMachine machine(static_cast<fsm::StateId>(model.state_bits.size()),
                            static_cast<fsm::InputId>(std::max<std::size_t>(
                                num_symbols, 1)));
  machine.set_initial_state(0);
  for (const auto& t : transitions) {
    machine.set_transition(t.from, t.input, t.to, t.output);
  }
  model.machine = std::move(machine);
  return model;
}

}  // namespace simcov::sym
