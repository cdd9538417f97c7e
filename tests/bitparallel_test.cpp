// Differential tests for the bit-parallel (64-lane) simulation paths.
//
// Every packed component here has a scalar twin that predates it; the
// contract is always the same — lane L of the packed run must equal the
// scalar run of lane L's inputs, bit for bit. The suites below pin that
// contract with randomized differentials (including partial final blocks
// of fewer than 64 lanes) for:
//
//   * sym::PackedLogicSim            vs LogicNetwork::eval_into
//   * errmodel::PackedMutantBlock    vs scalar exposes()
//   * MutantCoverageOptions::packed  vs the scalar replay loop
//   * pipeline::CircuitReplayStage   vs sym::CircuitReplayer (the campaign's
//                                    only external-circuit replay)
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"
#include "obs/event_sink.hpp"
#include "pipeline/stages.hpp"
#include "runtime/thread_pool.hpp"
#include "sym/circuit_replay.hpp"
#include "sym/packed_logic_sim.hpp"
#include "testmodel/testmodel.hpp"
#include "tour/tour.hpp"

namespace simcov {
namespace {

// ---------------------------------------------------------------------------
// PackedLogicSim vs LogicNetwork::eval_into
// ---------------------------------------------------------------------------

/// Random gate soup: `num_gates` gates drawn over the growing signal pool,
/// so deep and wide structures both occur.
sym::LogicNetwork random_network(std::mt19937_64& rng, std::size_t num_inputs,
                                 std::size_t num_gates) {
  sym::LogicNetwork net;
  std::vector<sym::SignalId> pool;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    pool.push_back(net.add_input("in" + std::to_string(i)));
  }
  pool.push_back(net.constant(false));
  pool.push_back(net.constant(true));
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  for (std::size_t g = 0; g < num_gates; ++g) {
    sym::SignalId s = 0;
    switch (rng() % 5) {
      case 0: s = net.make_not(pick()); break;
      case 1: s = net.make_and(pick(), pick()); break;
      case 2: s = net.make_or(pick(), pick()); break;
      case 3: s = net.make_xor(pick(), pick()); break;
      default: s = net.make_mux(pick(), pick(), pick()); break;
    }
    pool.push_back(s);
  }
  return net;
}

TEST(PackedLogicSim, MatchesScalarEvalOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const auto net = random_network(rng, 3 + rng() % 8, 64 + rng() % 256);
    const sym::PackedLogicSim packed(net);

    // 64 random scalar input vectors, one per lane.
    std::vector<std::vector<bool>> lane_inputs(sym::PackedLogicSim::kLanes);
    for (auto& in : lane_inputs) {
      in.resize(net.num_inputs());
      for (std::size_t k = 0; k < in.size(); ++k) in[k] = (rng() & 1) != 0;
    }
    std::vector<std::uint64_t> input_words(net.num_inputs(), 0);
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
      for (std::size_t l = 0; l < lane_inputs.size(); ++l) {
        if (lane_inputs[l][k]) input_words[k] |= std::uint64_t{1} << l;
      }
    }

    std::vector<std::uint64_t> packed_values;
    packed.eval_into(input_words, packed_values);

    std::vector<bool> scalar_values;
    for (std::size_t l = 0; l < lane_inputs.size(); ++l) {
      net.eval_into(lane_inputs[l], scalar_values);
      for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
        ASSERT_EQ(((packed_values[s] >> l) & 1u) != 0, scalar_values[s])
            << "seed=" << seed << " lane=" << l << " signal=" << s;
      }
    }
  }
}

TEST(PackedLogicSim, LevelizationIsTopological) {
  std::mt19937_64 rng(99);
  const auto net = random_network(rng, 5, 200);
  const sym::PackedLogicSim packed(net);
  for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
    const auto g = net.gate(s);
    switch (g.op) {
      case sym::GateOp::kInput:
      case sym::GateOp::kConst:
        EXPECT_EQ(packed.level(s), 0u);
        break;
      case sym::GateOp::kNot:
        EXPECT_GT(packed.level(s), packed.level(g.a));
        break;
      case sym::GateOp::kAnd:
      case sym::GateOp::kOr:
      case sym::GateOp::kXor:
        EXPECT_GT(packed.level(s), packed.level(g.a));
        EXPECT_GT(packed.level(s), packed.level(g.b));
        break;
      case sym::GateOp::kMux:
        EXPECT_GT(packed.level(s), packed.level(g.a));
        EXPECT_GT(packed.level(s), packed.level(g.b));
        EXPECT_GT(packed.level(s), packed.level(g.c));
        break;
    }
    EXPECT_LE(packed.level(s), packed.num_levels());
  }
}

TEST(PackedLogicSim, PackLanesRoundTrips) {
  const bool lanes[]{true, false, true, true, false};
  const std::uint64_t word = sym::PackedLogicSim::pack_lanes(lanes);
  EXPECT_EQ(word, 0b01101u);
}

// ---------------------------------------------------------------------------
// PackedMutantBlock vs scalar exposes()
// ---------------------------------------------------------------------------

TEST(PackedMutantBlock, MatchesScalarExposesPerSequence) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto m = fsm::random_connected_machine(30, 4, 5, seed);
    const auto mutants = errmodel::sample_mutations(
        m, 0, m.output_alphabet_size(), 100, seed + 100);
    ASSERT_FALSE(mutants.empty());

    // Test sequences: the transition tour set plus short random walks.
    auto set = tour::greedy_transition_tour_set(m, 0);
    ASSERT_TRUE(set.has_value());
    std::vector<std::vector<fsm::InputId>> sequences = set->sequences;
    std::mt19937_64 rng(seed + 7);
    for (int w = 0; w < 10; ++w) {
      std::vector<fsm::InputId> walk;
      for (int s = 0; s < 12; ++s) {
        walk.push_back(static_cast<fsm::InputId>(rng() % m.num_inputs()));
      }
      sequences.push_back(std::move(walk));
    }

    for (std::size_t base = 0; base < mutants.size();
         base += errmodel::PackedMutantBlock::kLanes) {
      const std::size_t len = std::min(errmodel::PackedMutantBlock::kLanes,
                                       mutants.size() - base);
      const errmodel::PackedMutantBlock block(
          m, std::span(mutants).subspan(base, len));
      const std::uint64_t all =
          len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
      for (std::size_t s = 0; s < sequences.size(); ++s) {
        const std::uint64_t mask = block.exposes(0, sequences[s], all);
        for (std::size_t l = 0; l < len; ++l) {
          const bool scalar =
              errmodel::exposes(m, mutants[base + l], 0, sequences[s]);
          ASSERT_EQ(((mask >> l) & 1u) != 0, scalar)
              << "seed=" << seed << " mutant=" << base + l << " seq=" << s;
        }
      }
    }
  }
}

TEST(PackedMutantBlock, ActiveMaskSkipsLanes) {
  const auto m = fsm::random_connected_machine(16, 3, 3, 2);
  const auto mutants =
      errmodel::sample_mutations(m, 0, m.output_alphabet_size(), 20, 3);
  ASSERT_GE(mutants.size(), 2u);
  auto set = tour::greedy_transition_tour_set(m, 0);
  ASSERT_TRUE(set.has_value());
  const errmodel::PackedMutantBlock block(m, mutants);
  const auto& seq = set->sequences.front();
  const std::uint64_t full = block.exposes(
      0, seq, mutants.size() == 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << mutants.size()) - 1);
  // Restricting to one lane returns at most that lane's bit.
  for (std::size_t l = 0; l < mutants.size(); ++l) {
    const std::uint64_t bit = std::uint64_t{1} << l;
    EXPECT_EQ(block.exposes(0, seq, bit), full & bit) << "lane=" << l;
  }
  EXPECT_EQ(block.exposes(0, seq, 0), 0u);
}

TEST(PackedMutantBlock, RejectsOversizedAndUndefinedSiteBlocks) {
  const auto m = fsm::random_connected_machine(8, 2, 2, 4);
  std::vector<errmodel::Mutation> block(65);
  for (auto& mut : block) {
    mut.at = fsm::TransitionRef{0, 0};
    mut.kind = errmodel::ErrorKind::kOutput;
    mut.new_output = 1;
  }
  EXPECT_THROW(errmodel::PackedMutantBlock(m, block), std::invalid_argument);

  fsm::MealyMachine partial(2, 2);
  partial.set_transition(0, 0, 1, 0);  // (1, *) and (0, 1) stay undefined
  std::vector<errmodel::Mutation> bad(1);
  bad[0].at = fsm::TransitionRef{1, 1};
  EXPECT_THROW(errmodel::PackedMutantBlock(partial, bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Packed replay / campaign end-to-end identity
// ---------------------------------------------------------------------------

TEST(PackedReplay, MutantCoverageIdenticalToScalarAtAnyThreadCount) {
  const auto m = fsm::random_connected_machine(24, 3, 4, 21);
  model::ExplicitModel model(m, 0);
  core::MutantCoverageOptions scalar;
  scalar.mutant_sample = 150;
  scalar.k_extension = 3;
  scalar.exclude_equivalent = true;
  scalar.threads = 1;
  const auto reference = core::evaluate_mutant_coverage(model, scalar);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    core::MutantCoverageOptions packed = scalar;
    packed.packed = true;
    packed.threads = threads;
    const auto r = core::evaluate_mutant_coverage(model, packed);
    EXPECT_EQ(r.mutants, reference.mutants) << "threads=" << threads;
    EXPECT_EQ(r.exposed, reference.exposed) << "threads=" << threads;
    EXPECT_EQ(r.equivalent, reference.equivalent) << "threads=" << threads;
    EXPECT_EQ(r.sequences, reference.sequences) << "threads=" << threads;
    EXPECT_EQ(r.test_length, reference.test_length) << "threads=" << threads;
    EXPECT_EQ(r.exposure_latency, reference.exposure_latency)
        << "threads=" << threads;
  }
}

/// The reduced DLX control model: 21 latches, 8 PIs and an input
/// constraint, so replays can hit invalid steps.
testmodel::TestModelOptions tiny_model_options() {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  return opt;
}

TEST(PackedReplay, CircuitReplayStageMatchesCircuitReplayerPerSequence) {
  const auto built = testmodel::build_dlx_control_model(tiny_model_options());
  const sym::CircuitReplayer replayer(built.circuit);
  const sym::PackedCircuitSim sim(built.circuit);
  model::SymbolicModel model(built.circuit);

  // 130 valid random walks of 0..36 steps: two full 64-lane blocks and a
  // 2-lane partial one.
  constexpr std::size_t kSequences = 130;
  constexpr std::size_t kMaxCycles = 30;
  std::vector<std::vector<std::vector<bool>>> batch;
  for (std::size_t i = 0; i < kSequences; ++i) {
    batch.push_back(model.random_walk(i % 37, 100 + i).tour.sequences.at(0));
  }
  // One invalid step: step 5 of sequence 70 (second block) takes an input
  // the constraint rejects in the state the walk reached there.
  auto& broken = batch[70];
  ASSERT_GT(broken.size(), 5u);
  std::uint64_t at = model.reset_state();
  for (std::size_t c = 0; c < 5; ++c) {
    at = *model.step(at, model::TestModel::pack_bits(broken[c]));
  }
  std::optional<std::uint64_t> rejected;
  for (std::uint64_t k = 0; k < (std::uint64_t{1} << model.input_bits());
       ++k) {
    if (!model.step(at, k).has_value()) {
      rejected = k;
      break;
    }
  }
  ASSERT_TRUE(rejected.has_value());
  broken[5] = model.input_vector(*rejected);

  constexpr std::size_t kFirst = 7;
  std::vector<pipeline::RunMetrics> out(batch.size());
  runtime::ThreadPool pool(2);
  pipeline::CircuitReplayStage::run_batch(sim, batch, kFirst, kMaxCycles, out,
                                          pool, pipeline::CancellationToken{},
                                          obs::null_sink());
  std::size_t invalid = 0, cut = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto trace = replayer.replay(batch[i], kMaxCycles);
    EXPECT_EQ(out[i].sequence, kFirst + i) << "sequence " << i;
    EXPECT_EQ(out[i].impl_cycles, trace.steps) << "sequence " << i;
    EXPECT_EQ(out[i].checkpoints, trace.steps) << "sequence " << i;
    EXPECT_EQ(out[i].passed, trace.valid) << "sequence " << i;
    EXPECT_EQ(out[i].budget_exhausted, trace.truncated) << "sequence " << i;
    invalid += trace.valid ? 0 : 1;
    cut += trace.truncated ? 1 : 0;
  }
  EXPECT_EQ(invalid, 1u);
  EXPECT_GE(cut, 1u);

  // A step narrower than the circuit's primary inputs is rejected, as
  // CircuitReplayer::replay rejects it.
  batch[3].back().pop_back();
  EXPECT_THROW(pipeline::CircuitReplayStage::run_batch(
                   sim, batch, kFirst, kMaxCycles, out, pool,
                   pipeline::CancellationToken{}, obs::null_sink()),
               std::invalid_argument);
}

}  // namespace
}  // namespace simcov
