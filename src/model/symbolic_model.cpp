#include "model/symbolic_model.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "sym/symbolic_tour.hpp"

namespace simcov::model {

SymbolicModel::SymbolicModel(const sym::SequentialCircuit& circuit,
                             bdd::ReorderPolicy reorder)
    // The comma expression installs the reordering policy on the manager
    // before SymbolicFsm builds the transition relation in it.
    : fsm_((mgr_.set_reorder_policy(reorder), mgr_), circuit) {
  if (fsm_.num_latches() > 63 || fsm_.num_inputs() > 63) {
    throw std::invalid_argument(
        "SymbolicModel: too many variables for packed 64-bit keys");
  }
  reset_ = fsm_.initial_state_key();
}

bool SymbolicModel::valid_at(std::uint64_t state, std::uint64_t input) {
  return fsm_.eval_packed({&fsm_.valid_inputs(), 1}, state, input) != 0;
}

std::vector<TestModel::Edge> SymbolicModel::edges(std::uint64_t state) {
  const auto it = edge_cache_.find(state);
  if (it != edge_cache_.end()) return it->second;
  std::vector<Edge> out;
  for (const sym::PackedEdge& e : fsm_.successors(state)) {
    out.push_back(Edge{e.input, e.next});
  }
  std::sort(out.begin(), out.end(),
            [](const Edge& a, const Edge& b) { return a.input < b.input; });
  return edge_cache_.emplace(state, std::move(out)).first->second;
}

std::optional<std::uint64_t> SymbolicModel::step(std::uint64_t state,
                                                 std::uint64_t input) {
  if (!valid_at(state, input)) return std::nullopt;
  return fsm_.eval_packed(fsm_.next_functions(), state, input);
}

std::optional<std::uint64_t> SymbolicModel::output(std::uint64_t state,
                                                   std::uint64_t input) {
  if (!valid_at(state, input)) return std::nullopt;
  const auto& funcs = fsm_.output_functions();
  if (funcs.size() > 63) {
    throw std::invalid_argument(
        "SymbolicModel::output: too many outputs for a packed 64-bit key");
  }
  return fsm_.eval_packed(funcs, state, input);
}

std::vector<bool> SymbolicModel::input_vector(std::uint64_t input) const {
  return unpack_bits(input, fsm_.num_inputs());
}

double SymbolicModel::count_reachable_states() {
  return fsm_.count_states(fsm_.reachable_states());
}

double SymbolicModel::count_reachable_transitions() {
  return fsm_.count_transitions(fsm_.reachable_states());
}

namespace {

/// Streaming transition tour over sym::SymbolicTourStream — sequences come
/// out of the suspended BDD walk one reset at a time.
class SymbolicModelTourStream final : public SequenceSource {
 public:
  SymbolicModelTourStream(sym::SymbolicFsm& fsm,
                          const sym::SymbolicTourOptions& options)
      : stream_(fsm, options) {}

  std::optional<std::vector<std::vector<bool>>> next_sequence() override {
    return stream_.next_sequence();
  }

  TourResult summary() override {
    auto sym_result = stream_.summary();
    TourResult result;
    result.coverage = sym_result.stats;
    result.steps = sym_result.steps;
    result.restarts = sym_result.restarts;
    result.complete = sym_result.complete;
    return result;
  }

 private:
  sym::SymbolicTourStream stream_;
};

}  // namespace

std::unique_ptr<SequenceSource> SymbolicModel::tour_source(
    const TourOptions& options) {
  sym::SymbolicTourOptions topt;
  topt.max_steps = options.max_steps;
  return std::make_unique<SymbolicModelTourStream>(fsm_, topt);
}

TourResult SymbolicModel::random_walk(std::size_t length,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  CoverageTracker tracker(count_reachable_states(),
                          count_reachable_transitions());
  TourResult result;
  result.tour.sequences.emplace_back();
  std::uint64_t at = reset_;
  tracker.visit_state(at);
  for (std::size_t step = 0; step < length; ++step) {
    const auto& out = edges(at);
    if (out.empty()) {
      throw std::domain_error("SymbolicModel: dead-end state reached");
    }
    const Edge e = out[rng() % out.size()];
    result.tour.sequences.back().push_back(
        unpack_bits(e.input, fsm_.num_inputs()));
    tracker.cover_transition(at, e.input);
    at = e.next;
    tracker.visit_state(at);
    ++result.steps;
  }
  result.coverage = tracker.stats();
  result.complete = result.coverage.complete();
  return result;
}

}  // namespace simcov::model
