#include "tour/tour.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <random>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "graph/postman.hpp"

namespace simcov::tour {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::StateId;

namespace {

/// Dense renumbering of the reachable states of m.
struct ReachableIndex {
  std::vector<StateId> to_dense;    // state -> dense id (or kNone)
  std::vector<StateId> to_state;    // dense id -> state
  static constexpr StateId kNone = 0xffffffffu;

  ReachableIndex(const MealyMachine& m, StateId start)
      : to_dense(m.num_states(), kNone) {
    const auto seen = m.reachable_states(start);
    for (StateId s = 0; s < m.num_states(); ++s) {
      if (seen[s]) {
        to_dense[s] = static_cast<StateId>(to_state.size());
        to_state.push_back(s);
      }
    }
  }
};

/// BFS from `from` to the nearest state satisfying `is_goal`, through
/// defined transitions. Returns the input sequence, or nullopt.
std::optional<std::vector<InputId>> bfs_to(
    const MealyMachine& m, StateId from,
    const std::function<bool(StateId)>& is_goal) {
  if (is_goal(from)) return std::vector<InputId>{};
  std::vector<bool> seen(m.num_states(), false);
  struct Link {
    StateId prev;
    InputId via;
  };
  std::unordered_map<StateId, Link> parent;
  std::deque<StateId> queue{from};
  seen[from] = true;
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      const auto t = m.transition(s, i);
      if (!t.has_value() || seen[t->next]) continue;
      seen[t->next] = true;
      parent[t->next] = Link{s, i};
      if (is_goal(t->next)) {
        std::vector<InputId> path;
        for (StateId at = t->next; at != from; at = parent[at].prev) {
          path.push_back(parent[at].via);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(t->next);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Tour> minimum_transition_tour(const MealyMachine& m,
                                            StateId start) {
  const ReachableIndex ri(m, start);
  graph::Digraph g(static_cast<graph::NodeId>(ri.to_state.size()));
  for (StateId dense = 0; dense < ri.to_state.size(); ++dense) {
    const StateId s = ri.to_state[dense];
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      const auto t = m.transition(s, i);
      if (!t.has_value()) continue;
      // Reachable source implies reachable target.
      g.add_edge(dense, ri.to_dense[t->next], /*cost=*/1,
                 /*label=*/static_cast<std::uint64_t>(s) * m.num_inputs() + i);
    }
  }
  const auto cpp = graph::directed_chinese_postman(g, ri.to_dense[start]);
  if (!cpp.has_value()) return std::nullopt;
  Tour tour;
  tour.start = start;
  tour.inputs.reserve(cpp->tour.size());
  for (graph::EdgeId e : cpp->tour) {
    tour.inputs.push_back(
        static_cast<InputId>(g.edge(e).label % m.num_inputs()));
  }
  return tour;
}

std::optional<Tour> greedy_transition_tour(const MealyMachine& m,
                                           StateId start) {
  // The greedy tour is the set generator's first sequence, provided that
  // sequence alone covers everything (no reset needed).
  TransitionTourSetGenerator gen(m, start);
  auto first = gen.next();
  if (!gen.done()) return std::nullopt;  // stuck
  Tour tour;
  tour.start = start;
  if (first.has_value()) tour.inputs = std::move(*first);
  return tour;
}

std::optional<Tour> state_tour(const MealyMachine& m, StateId start) {
  const auto reachable = m.reachable_states(start);
  std::vector<bool> visited(m.num_states(), false);
  std::size_t remaining = 0;
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (reachable[s]) ++remaining;
  }
  Tour tour;
  tour.start = start;
  StateId at = start;
  visited[at] = true;
  --remaining;
  while (remaining > 0) {
    const auto path = bfs_to(
        m, at, [&](StateId s) { return reachable[s] && !visited[s]; });
    if (!path.has_value()) return std::nullopt;
    for (InputId i : *path) {
      tour.inputs.push_back(i);
      at = m.transition(at, i)->next;
      if (!visited[at]) {
        visited[at] = true;
        --remaining;
      }
    }
  }
  return tour;
}

Tour random_walk(const MealyMachine& m, StateId start, std::size_t length,
                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Tour tour;
  tour.start = start;
  tour.inputs.reserve(length);
  StateId at = start;
  for (std::size_t step = 0; step < length; ++step) {
    std::vector<InputId> defined;
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      if (m.transition(at, i).has_value()) defined.push_back(i);
    }
    if (defined.empty()) {
      throw std::domain_error("random_walk: dead-end state reached");
    }
    const InputId i = defined[rng() % defined.size()];
    tour.inputs.push_back(i);
    at = m.transition(at, i)->next;
  }
  return tour;
}

std::size_t TourSet::total_length() const {
  std::size_t n = 0;
  for (const auto& seq : sequences) n += seq.size();
  return n;
}

TransitionTourSetGenerator::TransitionTourSetGenerator(const MealyMachine& m,
                                                       StateId start)
    : machine_(m), start_(start) {
  const auto targets = m.reachable_transitions(start);
  uncovered_ = std::set<fsm::TransitionRef>(targets.begin(), targets.end());
}

std::optional<std::vector<InputId>> TransitionTourSetGenerator::next() {
  if (uncovered_.empty() || stuck_) return std::nullopt;
  auto has_uncovered_out = [&](StateId s) {
    auto it = uncovered_.lower_bound(fsm::TransitionRef{s, 0});
    return it != uncovered_.end() && it->state == s;
  };
  std::vector<InputId> seq;
  StateId at = start_;
  bool progressed = false;
  for (;;) {
    const auto path = bfs_to(machine_, at, has_uncovered_out);
    if (!path.has_value()) break;  // stuck: end this sequence
    for (InputId i : *path) {
      uncovered_.erase(fsm::TransitionRef{at, i});
      seq.push_back(i);
      at = machine_.transition(at, i)->next;
    }
    const auto it = uncovered_.lower_bound(fsm::TransitionRef{at, 0});
    const InputId i = it->input;
    uncovered_.erase(it);
    seq.push_back(i);
    at = machine_.transition(at, i)->next;
    progressed = true;
  }
  if (!progressed) {  // even a fresh reset can't reach
    stuck_ = true;
    return std::nullopt;
  }
  return seq;
}

std::optional<TourSet> greedy_transition_tour_set(const MealyMachine& m,
                                                  StateId start) {
  TransitionTourSetGenerator gen(m, start);
  TourSet set;
  set.start = start;
  while (auto seq = gen.next()) set.sequences.push_back(std::move(*seq));
  if (gen.stuck()) return std::nullopt;
  return set;
}

CoverageStats evaluate_coverage(const MealyMachine& m, StateId start,
                                std::span<const InputId> inputs) {
  TourSet set;
  set.start = start;
  set.sequences.emplace_back(inputs.begin(), inputs.end());
  return evaluate_coverage_set(m, set);
}

bool is_transition_tour(const MealyMachine& m, StateId start,
                        std::span<const InputId> inputs) {
  const auto stats = evaluate_coverage(m, start, inputs);
  return stats.transitions_covered == stats.transitions_total;
}

CoverageStats evaluate_coverage_set(const MealyMachine& m,
                                    const TourSet& set) {
  const auto reachable = m.reachable_states(set.start);
  std::size_t states_total = 0;
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (reachable[s]) ++states_total;
  }
  model::CoverageTracker tracker(
      static_cast<double>(states_total),
      static_cast<double>(m.reachable_transitions(set.start).size()));
  tracker.visit_state(set.start);
  for (const auto& seq : set.sequences) {
    StateId at = set.start;
    for (InputId i : seq) {
      const auto t = m.transition(at, i);
      if (!t.has_value()) {
        throw std::domain_error(
            "evaluate_coverage_set: undefined transition");
      }
      tracker.cover_transition(at, i);
      at = t->next;
      tracker.visit_state(at);
    }
  }
  return tracker.stats();
}

bool is_transition_tour_set(const MealyMachine& m, const TourSet& set) {
  const auto stats = evaluate_coverage_set(m, set);
  return stats.transitions_covered == stats.transitions_total;
}

}  // namespace simcov::tour
