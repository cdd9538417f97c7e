// Tests for the paper's error model (Definitions 1-4): mutation application,
// enumeration, excitation/exposure, and masking analysis.
#include "errmodel/errmodel.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <stdexcept>
#include <tuple>

#include "tour/tour.hpp"

namespace simcov::errmodel {
namespace {

using fsm::InputId;
using fsm::MealyMachine;
using fsm::StateId;

MealyMachine ring_machine() {
  MealyMachine m(3, 2);
  for (StateId s = 0; s < 3; ++s) {
    m.set_transition(s, 0, (s + 1) % 3, s);
    m.set_transition(s, 1, s, 10 + s);
  }
  return m;
}

TEST(Mutation, OutputMutationChangesOnlyOutput) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kOutput, {1, 0}, 0, 42};
  const MealyMachine mutant = apply_mutation(m, mut);
  EXPECT_EQ(mutant.transition(1, 0)->output, 42u);
  EXPECT_EQ(mutant.transition(1, 0)->next, m.transition(1, 0)->next);
  // All other transitions intact.
  EXPECT_EQ(mutant.transition(0, 0), m.transition(0, 0));
  EXPECT_EQ(mutant.transition(1, 1), m.transition(1, 1));
}

TEST(Mutation, TransferMutationChangesOnlyNextState) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kTransfer, {1, 0}, 0, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  EXPECT_EQ(mutant.transition(1, 0)->next, 0u);
  EXPECT_EQ(mutant.transition(1, 0)->output, m.transition(1, 0)->output);
}

TEST(Mutation, VacuousMutationThrows) {
  const MealyMachine m = ring_machine();
  const Mutation same_output{ErrorKind::kOutput, {1, 0},
                             0, m.transition(1, 0)->output};
  EXPECT_THROW((void)apply_mutation(m, same_output), std::invalid_argument);
  const Mutation same_next{ErrorKind::kTransfer, {1, 0},
                           m.transition(1, 0)->next, 0};
  EXPECT_THROW((void)apply_mutation(m, same_next), std::invalid_argument);
}

TEST(Mutation, UndefinedTransitionThrows) {
  MealyMachine m(2, 2);
  m.set_transition(0, 0, 1, 0);
  const Mutation mut{ErrorKind::kOutput, {0, 1}, 0, 5};
  EXPECT_THROW((void)apply_mutation(m, mut), std::invalid_argument);
}

TEST(Enumeration, OutputErrorCounts) {
  const MealyMachine m = ring_machine();
  // 6 reachable transitions x (alphabet 13 - 1 correct) output variants.
  const auto muts = enumerate_output_errors(m, 0, 13);
  EXPECT_EQ(muts.size(), 6u * 12u);
}

TEST(Enumeration, TransferErrorCounts) {
  const MealyMachine m = ring_machine();
  // 6 transitions x 2 wrong-but-reachable destinations.
  const auto muts = enumerate_transfer_errors(m, 0);
  EXPECT_EQ(muts.size(), 12u);
}

TEST(Enumeration, SkipsUnreachableTransitionsAndTargets) {
  MealyMachine m(3, 1);
  m.set_transition(0, 0, 0, 0);  // only state 0 reachable
  m.set_transition(1, 0, 2, 0);
  const auto transfers = enumerate_transfer_errors(m, 0);
  EXPECT_TRUE(transfers.empty());  // no wrong reachable destination exists
  const auto outputs = enumerate_output_errors(m, 0, 2);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].at, (fsm::TransitionRef{0, 0}));
}

TEST(Sampling, SampleIsBoundedAndReproducible) {
  const MealyMachine m = ring_machine();
  const auto a = sample_mutations(m, 0, 13, 10, 3);
  const auto b = sample_mutations(m, 0, 13, 10, 3);
  EXPECT_EQ(a.size(), 10u);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].at, b[k].at);
    EXPECT_EQ(static_cast<int>(a[k].kind), static_cast<int>(b[k].kind));
  }
  // Requesting more than the pool returns the whole pool.
  const auto all = sample_mutations(m, 0, 13, 1000000, 3);
  EXPECT_EQ(all.size(), 6u * 12u + 12u);
}

using MutationKey =
    std::tuple<ErrorKind, StateId, InputId, StateId, fsm::OutputId>;

MutationKey key_of(const Mutation& mut) {
  return {mut.kind, mut.at.state, mut.at.input, mut.new_next, mut.new_output};
}

// The indexed sampler must be a bijection onto the enumerated universe:
// asking for at least the whole universe returns each enumerated mutant
// exactly once, and a partial sample draws only distinct, real mutants.
class SamplingUniverse : public ::testing::TestWithParam<int> {};

TEST_P(SamplingUniverse, FullSampleIsTheEnumerationAndPartialIsDistinct) {
  const int seed = GetParam();
  const MealyMachine m =
      seed == 0 ? ring_machine()
                : fsm::random_connected_machine(5 + seed, 1 + seed % 3,
                                                2 + seed % 4, seed);
  const fsm::OutputId alphabet = m.output_alphabet_size() + seed % 2;
  std::vector<Mutation> universe = enumerate_output_errors(m, 0, alphabet);
  const auto transfers = enumerate_transfer_errors(m, 0);
  universe.insert(universe.end(), transfers.begin(), transfers.end());
  std::set<MutationKey> expected;
  for (const auto& mut : universe) expected.insert(key_of(mut));
  ASSERT_EQ(expected.size(), universe.size());

  for (const std::size_t count : {universe.size(), universe.size() + 7}) {
    const auto all = sample_mutations(m, 0, alphabet, count, seed + 1);
    ASSERT_EQ(all.size(), universe.size());
    std::set<MutationKey> got;
    for (const auto& mut : all) got.insert(key_of(mut));
    EXPECT_EQ(got, expected);
  }

  const auto reachable = m.reachable_states(0);
  const std::size_t count = universe.size() / 3;
  const auto part = sample_mutations(m, 0, alphabet, count, seed + 1);
  ASSERT_EQ(part.size(), count);
  std::set<MutationKey> distinct;
  for (const auto& mut : part) {
    EXPECT_TRUE(distinct.insert(key_of(mut)).second) << "duplicate draw";
    EXPECT_NO_THROW((void)apply_mutation(m, mut)) << "vacuous draw";
    if (mut.kind == ErrorKind::kTransfer) {
      EXPECT_TRUE(reachable[mut.new_next]);
    } else {
      EXPECT_LT(mut.new_output, alphabet);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, SamplingUniverse, ::testing::Range(0, 6));

// The sample is fixed by runtime/rng.hpp and this module alone; no standard
// library change may move it. These literals are the first draws of the
// ring machine at seed 3.
TEST(Sampling, FirstDrawsArePinned) {
  const auto sample = sample_mutations(ring_machine(), 0, 13, 8, 3);
  const std::vector<MutationKey> pinned = {
      {ErrorKind::kOutput, 2, 1, 0, 0},   {ErrorKind::kTransfer, 1, 0, 1, 0},
      {ErrorKind::kOutput, 2, 0, 0, 8},   {ErrorKind::kOutput, 0, 1, 0, 12},
      {ErrorKind::kOutput, 0, 0, 0, 4},   {ErrorKind::kOutput, 1, 0, 0, 10},
      {ErrorKind::kOutput, 1, 1, 0, 5},   {ErrorKind::kOutput, 1, 1, 0, 3},
  };
  ASSERT_EQ(sample.size(), pinned.size());
  for (std::size_t k = 0; k < sample.size(); ++k) {
    EXPECT_EQ(key_of(sample[k]), pinned[k]) << "draw " << k;
  }
}

TEST(Sampling, EmptyUniverseAndZeroCountReturnNothing) {
  MealyMachine lone(1, 1);  // one reachable state, alphabet 1: K == 0
  lone.set_transition(0, 0, 0, 0);
  EXPECT_TRUE(sample_mutations(lone, 0, 1, 10, 1).empty());
  const MealyMachine undefined(3, 2);  // no reachable transition
  EXPECT_TRUE(sample_mutations(undefined, 0, 5, 10, 1).empty());
  EXPECT_TRUE(sample_mutations(undefined, 0, 0, 10, 1).empty());
  EXPECT_TRUE(sample_mutations(ring_machine(), 0, 13, 0, 1).empty());
}

TEST(Sampling, OutputOutsideAlphabetThrows) {
  // ring_machine emits outputs up to 12; alphabet 12 would give transition
  // (2, 1) a different radix from the others.
  EXPECT_THROW((void)sample_mutations(ring_machine(), 0, 12, 5, 1),
               std::invalid_argument);
}

// A universe of ~2.3e9 mutants: materialising it would take tens of GB, so
// this fails by running out of memory if the sampler ever enumerates again.
TEST(Sampling, DrawsFromAHugeUniverseWithoutMaterialisingIt) {
  const fsm::OutputId alphabet = fsm::OutputId{1} << 16;
  const MealyMachine m = fsm::random_connected_machine(4096, 8, alphabet, 5);
  ASSERT_GT(m.reachable_transitions(0).size() *
                (std::size_t{alphabet} - 1 + m.num_reachable_states(0) - 1),
            std::size_t{1000000000});
  const auto sample = sample_mutations(m, 0, alphabet, 1000, 9);
  ASSERT_EQ(sample.size(), 1000u);
  std::set<MutationKey> distinct;
  for (const auto& mut : sample) distinct.insert(key_of(mut));
  EXPECT_EQ(distinct.size(), sample.size());
}

TEST(Exposure, OutputErrorExposedExactlyWhenExcited) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kOutput, {1, 1}, 0, 42};
  const MealyMachine mutant = apply_mutation(m, mut);
  // Sequence avoiding (1,1): not exposed.
  const std::vector<InputId> avoid{0, 0, 0};
  EXPECT_FALSE(excites(mutant, mut, 0, avoid));
  EXPECT_FALSE(exposes(m, mutant, 0, avoid));
  // Sequence through (1,1): exposed immediately (deterministic machine =>
  // output errors are uniform, Def. 2 holds trivially at concrete level).
  const std::vector<InputId> hit{0, 1};
  EXPECT_TRUE(excites(mutant, mut, 0, hit));
  EXPECT_TRUE(exposes(m, mutant, 0, hit));
}

TEST(Exposure, TransferErrorNeedsFollowUpToExpose) {
  const MealyMachine m = ring_machine();
  // Redirect (0,0) from state 1 to state 0; output unchanged.
  const Mutation mut{ErrorKind::kTransfer, {0, 0}, 0, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  // Excited but not exposed by the single step.
  const std::vector<InputId> one{0};
  EXPECT_TRUE(excites(mutant, mut, 0, one));
  EXPECT_FALSE(exposes(m, mutant, 0, one));
  // The self-loop output (10+state) differs between states: one more step
  // on input 1 exposes.
  const std::vector<InputId> two{0, 1};
  EXPECT_TRUE(exposes(m, mutant, 0, two));
}

TEST(Exposure, DefinednessMismatchCountsAsExposure) {
  MealyMachine spec(2, 1);
  spec.set_transition(0, 0, 1, 0);
  spec.set_transition(1, 0, 0, 0);
  // Mutant redirects (0,0) to state 0... then (0,0) defined. Build a spec
  // with a partial state instead.
  MealyMachine partial = spec;
  partial.clear_transition(1, 0);
  const std::vector<InputId> seq{0, 0};
  EXPECT_TRUE(exposes(spec, partial, 0, seq));
}

TEST(TestSet, TransitionTourExposesAllOutputErrors) {
  const MealyMachine m = ring_machine();
  const auto t = tour::minimum_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  const auto muts = enumerate_output_errors(m, 0, 13);
  const auto report = evaluate_test_set(m, muts, 0, t->inputs);
  EXPECT_EQ(report.total_mutants, muts.size());
  EXPECT_EQ(report.exposed, muts.size());
  EXPECT_EQ(report.excited, muts.size());
  EXPECT_DOUBLE_EQ(report.exposure_rate(), 1.0);
}

TEST(TestSet, EmptySequenceExposesNothing) {
  const MealyMachine m = ring_machine();
  const auto muts = enumerate_transfer_errors(m, 0);
  const std::vector<InputId> empty;
  const auto report = evaluate_test_set(m, muts, 0, empty);
  EXPECT_EQ(report.exposed, 0u);
  EXPECT_EQ(report.excited, 0u);
  EXPECT_EQ(report.exposed_flags.size(), muts.size());
}

TEST(Masking, ReconvergenceWithoutOutputDifferenceIsMasked) {
  // Machine where a transfer error diverges and a structural symmetry brings
  // it back: states 1 and 2 behave identically on input 0 (both -> 0, same
  // output), so redirecting 0->1 to 0->2 reconverges after one step.
  MealyMachine m(3, 1);
  m.set_transition(0, 0, 1, 7);
  m.set_transition(1, 0, 0, 8);
  m.set_transition(2, 0, 0, 8);  // same output as from state 1
  const Mutation mut{ErrorKind::kTransfer, {0, 0}, 2, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  const std::vector<InputId> seq{0, 0, 0};
  const auto analysis = analyze_masking(m, mutant, 0, seq);
  EXPECT_TRUE(analysis.diverged);
  EXPECT_TRUE(analysis.reconverged);
  EXPECT_FALSE(analysis.output_differed);
  EXPECT_TRUE(analysis.masked());
  EXPECT_EQ(analysis.diverge_step, 1u);
  EXPECT_EQ(analysis.reconverge_step, 2u);
  // Masked means no test sequence through this path exposes it: indeed the
  // machines are output-equivalent here.
  EXPECT_FALSE(exposes(m, mutant, 0, seq));
}

TEST(Masking, ExposedDivergenceIsNotMasked) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kTransfer, {0, 0}, 0, 0};
  const MealyMachine mutant = apply_mutation(m, mut);
  const std::vector<InputId> seq{0, 1, 0, 1};
  const auto analysis = analyze_masking(m, mutant, 0, seq);
  EXPECT_TRUE(analysis.diverged);
  EXPECT_TRUE(analysis.output_differed);
  EXPECT_FALSE(analysis.masked());
}

TEST(Masking, NoDivergenceForOutputError) {
  const MealyMachine m = ring_machine();
  const Mutation mut{ErrorKind::kOutput, {0, 0}, 0, 42};
  const MealyMachine mutant = apply_mutation(m, mut);
  const std::vector<InputId> seq{0, 0, 0};
  const auto analysis = analyze_masking(m, mutant, 0, seq);
  EXPECT_FALSE(analysis.diverged);
  EXPECT_TRUE(analysis.output_differed);
  EXPECT_FALSE(analysis.masked());
}

// Property: the allocation-free exposes(spec, Mutation, ...) overload agrees
// with the materialized-mutant version on random machines and sequences.
class ExposesOverloadProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExposesOverloadProperty, OverloadsAgree) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const fsm::MealyMachine m = fsm::random_connected_machine(7, 3, 3, seed);
  const auto mutants =
      sample_mutations(m, 0, m.output_alphabet_size(), 40, seed ^ 7);
  std::mt19937_64 rng(seed * 3 + 1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<fsm::InputId> seq(20);
    for (auto& i : seq) i = static_cast<fsm::InputId>(rng() % 3);
    for (const auto& mut : mutants) {
      const auto mutant = apply_mutation(m, mut);
      EXPECT_EQ(exposes(m, mutant, 0, seq), exposes(m, mut, 0, seq));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExposesOverloadProperty,
                         ::testing::Range(0, 8));

TEST(ExposesOverload, UndefinedTransitionThrows) {
  fsm::MealyMachine m(2, 2);
  m.set_transition(0, 0, 1, 0);
  const Mutation mut{ErrorKind::kOutput, {0, 1}, 0, 5};
  const std::vector<fsm::InputId> seq{0};
  EXPECT_THROW((void)exposes(m, mut, 0, seq), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property: the headline theorem on a favourable class of machines.
//
// If outputs are unique per (state, input), every pair of distinct states is
// ∀1-distinguishable (ANY single input separates them), the strongest form
// of the paper's Definition 5. Theorem 1 then promises that a transition
// tour (plus one trailing step so the final transition also has a follow-up)
// exposes ALL output and transfer errors. This is Theorem 3's mechanism in
// miniature on random machines.
// ---------------------------------------------------------------------------

class TourCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(TourCompleteness, TourExposesAllErrorsOnForallDistinguishableMachines) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  fsm::MealyMachine m = fsm::random_connected_machine(8, 3, 3, seed);
  // Input 2 becomes a reset so the machine is strongly connected; then make
  // every output unique per (state, input): out(s, i) = s * 3 + i.
  for (StateId s = 0; s < m.num_states(); ++s) {
    m.set_transition(s, 2, 0, 0);
    for (InputId i = 0; i < m.num_inputs(); ++i) {
      const auto t = m.transition(s, i).value();
      m.set_transition(s, i, t.next, s * m.num_inputs() + i);
    }
  }
  auto t = tour::minimum_transition_tour(m, 0);
  ASSERT_TRUE(t.has_value());
  // Close the tour with one status read so the final transition's transfer
  // errors are also followed by a distinguishing step.
  t->inputs.push_back(2);
  const auto outputs = enumerate_output_errors(m, 0, m.output_alphabet_size());
  const auto transfers = enumerate_transfer_errors(m, 0);
  const auto rep_o = evaluate_test_set(m, outputs, 0, t->inputs);
  EXPECT_EQ(rep_o.exposed, rep_o.total_mutants);
  const auto rep_t = evaluate_test_set(m, transfers, 0, t->inputs);
  EXPECT_EQ(rep_t.exposed, rep_t.total_mutants)
      << "a transfer error escaped the tour";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TourCompleteness, ::testing::Range(0, 15));

}  // namespace
}  // namespace simcov::errmodel
