#include "sym/symbolic_tour.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace simcov::sym {

/// Drives the tour: concrete walking over the implicit model, suspended at
/// every reset so SymbolicTourStream can yield sequence-by-sequence.
///
/// Per visited state, the valid inputs and their successor states are
/// enumerated once (via generalized cofactor of the input constraint) and
/// memoized packed; covering steps then cost O(1). A per-state cursor is
/// exact coverage bookkeeping: transition (s, i) can only be covered by
/// taking i at s, so inputs before the cursor are covered, inputs after are
/// not. Navigation toward uncovered states uses pre-image distance layers,
/// recomputed lazily when stale.
struct SymbolicTourStream::Impl {
 public:
  Impl(SymbolicFsm& fsm, const SymbolicTourOptions& options)
      : fsm_(fsm),
        mgr_(fsm.manager()),
        options_(options),
        num_latches_(fsm.ps_vars().size()),
        num_pis_(fsm.pi_vars().size()) {
    if (num_latches_ > 63 || num_pis_ > 63) {
      throw std::invalid_argument(
          "symbolic_transition_tour: too many variables for packed keys");
    }

    const bdd::Bdd reached = fsm_.reachable_states();
    transitions_total_ = fsm_.count_transitions(reached);
    total_count_ = static_cast<std::size_t>(transitions_total_);

    // Shared cross-backend coverage accounting: distinct visited states and
    // distinct taken transitions (navigation steps included — they exercise
    // transitions just like covering steps do).
    tracker_.emplace(fsm_.count_states(reached), transitions_total_);

    const std::vector<unsigned> pi_vec(fsm_.pi_vars().begin(),
                                       fsm_.pi_vars().end());
    uncovered_states_ =
        reached & mgr_.exists(fsm_.valid_inputs(), mgr_.cube(pi_vec));

    state_ = fsm_.initial_state_key();
    tracker_->visit_state(state_);
  }

  /// Resumes the walk until the next reset or until it ends. See the
  /// header for the yielded-sequence contract.
  std::optional<std::vector<std::vector<bool>>> next_sequence() {
    if (finished_) return std::nullopt;
    std::vector<std::vector<bool>> seq;
    while (steps_ < options_.max_steps) {
      if (covered_count_ >= total_count_) {
        complete_ = true;
        break;
      }
      StateInfo& info = state_info(state_);
      std::uint64_t input = 0;
      std::uint64_t next = 0;
      if (info.cursor < info.edges.size()) {
        // Cover the next fresh transition out of this state.
        input = info.edges[info.cursor].input;
        next = info.edges[info.cursor].next;
        ++info.cursor;
        ++covered_count_;
        if (info.cursor == info.edges.size()) {
          pending_exhausted_.push_back(state_);
        }
      } else if (!navigate(info, input, next)) {
        // No path to an uncovered transition from here: reset and yield the
        // sequence that just ended.
        ++restarts_;
        state_ = fsm_.initial_state_key();
        return seq;
      }
      if (options_.record_inputs) {
        seq.push_back(unpack_input(input));
      }
      tracker_->cover_transition(state_, input);
      state_ = next;
      tracker_->visit_state(state_);
      ++steps_;
    }
    finished_ = true;
    return seq;
  }

  [[nodiscard]] bool finished() const { return finished_; }

  [[nodiscard]] SymbolicTourResult summary() const {
    SymbolicTourResult result;
    result.steps = steps_;
    result.restarts = restarts_;
    result.transitions_total = transitions_total_;
    result.complete = complete_;
    result.stats = tracker_->stats();
    // The tracker count dominates the per-state cursors: navigation may
    // take an edge its cursor has not reached yet, which still covers it —
    // a step-capped walk can therefore be complete before the cursors are.
    result.transitions_covered = result.stats.transitions_covered;
    if (result.stats.complete()) result.complete = true;
    return result;
  }

 private:
  struct StateInfo {
    std::vector<PackedEdge> edges;  // minterm order
    std::size_t cursor = 0;
  };

  std::vector<bool> unpack_input(std::uint64_t input) const {
    std::vector<bool> bits(num_pis_);
    for (std::size_t k = 0; k < num_pis_; ++k) {
      bits[k] = (input >> k) & 1u;
    }
    return bits;
  }

  /// Enumerates (valid input, successor) pairs of a state, once.
  StateInfo& state_info(std::uint64_t state) {
    const auto it = cache_.find(state);
    if (it != cache_.end()) return it->second;
    return cache_.emplace(state, StateInfo{fsm_.successors(state)})
        .first->second;
  }

  bool eval_at_state(const bdd::Bdd& f, std::uint64_t state) {
    return fsm_.eval_packed({&f, 1}, state, 0) != 0;
  }

  // ---- navigation ----------------------------------------------------------
  void flush_exhausted() {
    if (pending_exhausted_.empty()) return;
    bdd::Bdd gone = mgr_.zero();
    for (const std::uint64_t s : pending_exhausted_) {
      gone |= fsm_.state_minterm(s);
    }
    uncovered_states_ &= !gone;
    pending_exhausted_.clear();
  }

  void compute_layers() {
    flush_exhausted();
    layers_.clear();
    layers_.push_back(uncovered_states_);
    bdd::Bdd seen = uncovered_states_;
    for (;;) {
      const bdd::Bdd prev = fsm_.preimage(seen) & !seen;
      if (prev.is_zero()) break;
      layers_.push_back(prev);
      seen |= prev;
      if (eval_at_state(prev, state_)) break;  // current state reached
    }
  }

  std::optional<std::size_t> layer_of(std::uint64_t state) {
    for (std::size_t k = 0; k < layers_.size(); ++k) {
      if (eval_at_state(layers_[k], state)) return k;
    }
    return std::nullopt;
  }

  /// Picks the edge stepping one layer closer to the uncovered set.
  bool descend(const StateInfo& info, std::size_t target_layer,
               std::uint64_t& input_out, std::uint64_t& next_out) {
    for (const PackedEdge& e : info.edges) {
      if (eval_at_state(layers_[target_layer], e.next)) {
        input_out = e.input;
        next_out = e.next;
        return true;
      }
    }
    return false;
  }

  bool navigate(const StateInfo& info, std::uint64_t& input_out,
                std::uint64_t& next_out) {
    if (info.edges.empty()) return false;  // dead end
    auto k = layer_of(state_);
    if (k.has_value() && *k > 0 &&
        descend(info, *k - 1, input_out, next_out)) {
      return true;
    }
    // Missing or stale layers: recompute once and retry.
    compute_layers();
    k = layer_of(state_);
    if (!k.has_value() || *k == 0) return false;
    return descend(info, *k - 1, input_out, next_out);
  }

  SymbolicFsm& fsm_;
  bdd::BddManager& mgr_;
  SymbolicTourOptions options_;
  const std::size_t num_latches_;
  const std::size_t num_pis_;

  std::uint64_t state_ = 0;
  std::unordered_map<std::uint64_t, StateInfo> cache_;
  std::vector<std::uint64_t> pending_exhausted_;
  std::size_t covered_count_ = 0;
  std::size_t total_count_ = 0;
  double transitions_total_ = 0.0;
  std::size_t steps_ = 0;
  std::size_t restarts_ = 0;
  bool complete_ = false;
  bool finished_ = false;
  std::optional<model::CoverageTracker> tracker_;
  bdd::Bdd uncovered_states_;
  std::vector<bdd::Bdd> layers_;
};

SymbolicTourStream::SymbolicTourStream(SymbolicFsm& fsm,
                                       const SymbolicTourOptions& options)
    : impl_(std::make_unique<Impl>(fsm, options)) {}

SymbolicTourStream::~SymbolicTourStream() = default;
SymbolicTourStream::SymbolicTourStream(SymbolicTourStream&&) noexcept = default;
SymbolicTourStream& SymbolicTourStream::operator=(SymbolicTourStream&&) noexcept =
    default;

std::optional<std::vector<std::vector<bool>>>
SymbolicTourStream::next_sequence() {
  return impl_->next_sequence();
}

bool SymbolicTourStream::finished() const { return impl_->finished(); }

SymbolicTourResult SymbolicTourStream::summary() const {
  return impl_->summary();
}

SymbolicTourResult symbolic_transition_tour(
    SymbolicFsm& fsm, const SymbolicTourOptions& options) {
  SymbolicTourStream stream(fsm, options);
  std::vector<std::vector<std::vector<bool>>> sequences;
  while (auto seq = stream.next_sequence()) {
    if (options.record_inputs) sequences.push_back(std::move(*seq));
  }
  SymbolicTourResult result = stream.summary();
  result.sequences = std::move(sequences);
  return result;
}

}  // namespace simcov::sym
