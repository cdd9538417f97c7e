#include "model/test_model.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace simcov::model {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kExplicit: return "explicit";
    case Backend::kSymbolic: return "symbolic";
  }
  return "?";
}

std::uint64_t TestModel::pack_bits(const std::vector<bool>& bits) {
  if (bits.size() > 63) {
    throw std::invalid_argument("TestModel::pack_bits: more than 63 bits");
  }
  std::uint64_t key = 0;
  for (std::size_t j = 0; j < bits.size(); ++j) {
    if (bits[j]) key |= std::uint64_t{1} << j;
  }
  return key;
}

std::vector<bool> TestModel::unpack_bits(std::uint64_t key, unsigned width) {
  std::vector<bool> bits(width);
  for (unsigned j = 0; j < width; ++j) {
    bits[j] = (key >> j) & 1u;
  }
  return bits;
}

void TestModel::visit_reachable(
    std::size_t max_states,
    const std::function<void(std::uint64_t, const Edge&)>& visit) {
  std::unordered_set<std::uint64_t> seen;
  std::deque<std::uint64_t> frontier;
  seen.insert(reset_state());
  frontier.push_back(reset_state());
  while (!frontier.empty()) {
    const std::uint64_t state = frontier.front();
    frontier.pop_front();
    for (const Edge& edge : edges(state)) {
      visit(state, edge);
      if (seen.insert(edge.next).second) {
        if (seen.size() > max_states) {
          throw std::runtime_error(
              "TestModel::visit_reachable: state space exceeds max_states");
        }
        frontier.push_back(edge.next);
      }
    }
  }
}

void TestModel::replay(const std::vector<std::vector<bool>>& steps,
                       CoverageTracker& tracker) {
  std::uint64_t at = reset_state();
  tracker.visit_state(at);
  for (const auto& bits : steps) {
    const std::uint64_t input = pack_bits(bits);
    const auto next = step(at, input);
    if (!next.has_value()) {
      throw std::domain_error("TestModel::replay: invalid input in sequence");
    }
    tracker.cover_transition(at, input);
    at = *next;
    tracker.visit_state(at);
  }
}

CoverageStats TestModel::evaluate(const Tour& tour) {
  CoverageTracker tracker(count_reachable_states(),
                          count_reachable_transitions());
  for (const auto& seq : tour.sequences) replay(seq, tracker);
  // An empty tour still starts at reset.
  if (tour.sequences.empty()) tracker.visit_state(reset_state());
  return tracker.stats();
}

}  // namespace simcov::model
