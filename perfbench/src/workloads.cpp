#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "bdd/bdd.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "errmodel/errmodel.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"
#include "obs/coverage_telemetry.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stages.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "stats.hpp"
#include "store/fingerprint.hpp"
#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"

namespace perfbench {

namespace {

using namespace simcov;

// ---- Shared helpers ---------------------------------------------------------

/// Seconds of every span named `name` in the ledger (0 when none ran).
double total(const JobLedger& l, const std::string& name) {
  const auto it = l.by_name.find(name);
  return it == l.by_name.end() ? 0.0 : it->second.total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The reduced-ISA, 1-bit register-address DLX control model of
/// bench_parallel_campaign: 1,024 states, 21,508 transitions.
testmodel::TestModelOptions campaign_model_options() {
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

/// The full-ISA, 4-bit register-address model (36 latches) of
/// bench_symbolic_scaling's reg4 row.
testmodel::TestModelOptions reach_model_options() {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 4;
  return opt;
}

/// Per-(stage, kind) latency events the pipeline stages emit: per-item
/// seconds and pool queue waits. Events arrive from every pool lane.
class LatencyCapture final : public obs::EventSink {
 public:
  struct Acc {
    double sum = 0.0;
    double max = 0.0;
    std::size_t count = 0;
  };

  void latency(obs::Stage stage, std::string_view kind, std::uint64_t,
               double seconds) override {
    const std::lock_guard lock(mutex_);
    Acc& a = acc_[{stage, std::string(kind)}];
    a.sum += seconds;
    a.max = std::max(a.max, seconds);
    ++a.count;
  }

  [[nodiscard]] Acc get(obs::Stage stage, const std::string& kind) const {
    const std::lock_guard lock(mutex_);
    const auto it = acc_.find({stage, kind});
    return it == acc_.end() ? Acc{} : it->second;
  }

  /// Queue waits summed over every stage.
  [[nodiscard]] double queue_wait() const {
    const std::lock_guard lock(mutex_);
    double s = 0.0;
    for (const auto& [key, a] : acc_) {
      if (key.second == "queue_wait") s += a.sum;
    }
    return s;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<obs::Stage, std::string>, Acc> acc_;  // guarded
};

// ---- Campaigns (dlx_campaign, symbolic_campaign) -----------------------------

/// The semantic campaign report — timings, metrics, store and baseline
/// erased as in bench_parallel_campaign — hashed.
std::string report_hash(core::CampaignResult result) {
  result.timings = {};
  result.store_stats.reset();
  result.baseline.reset();
  result.metrics.reset();
  store::Hasher h;
  h.str(core::to_json(result));
  return h.digest().hex();
}

/// Longest sequence over total steps: the share of a test set that one
/// shard must run alone.
template <class Sequences>
double longest_share(const Sequences& sequences) {
  std::size_t total_steps = 0;
  std::size_t longest = 0;
  for (const auto& seq : sequences) {
    total_steps += seq.size();
    longest = std::max(longest, seq.size());
  }
  return ratio(static_cast<double>(longest), static_cast<double>(total_steps));
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const WorkloadInputs& in, bool symbolic)
      : lanes_(in.lanes), symbolic_(symbolic), bugs_(campaign_bugs(in.seed)) {
    options_.model_options = campaign_model_options();
    options_.method = core::TestMethod::kTransitionTourSet;
    options_.backend = symbolic ? core::BackendChoice::kSymbolic
                                : core::BackendChoice::kExplicit;
    options_.seed = in.seed;
    options_.threads = in.lanes;
    options_.collect_coverage_telemetry = !symbolic;
  }

  void run_job() override {
    core::CampaignOptions opt = options_;
    std::unique_ptr<obs::MetricsRegistry> registry;
    if (!symbolic_) {
      registry = std::make_unique<obs::MetricsRegistry>();
      opt.metrics = registry.get();
    }
    last_ = core::run_campaign(opt, bugs_);
  }

  std::string check() override { return check_result(last_); }

  std::string run_traced(Tracer& tracer, std::size_t job,
                         LayerValues& v) override {
    LatencyCapture capture;
    const std::size_t root = tracer.begin_job(job);
    const TracedCampaign traced = traced_body(tracer, root, capture);
    tracer.end(root);
    const core::CampaignResult& result = traced.result;

    const JobLedger l = ledger(tracer.spans(), root);
    const double concretize_s = total(l, "validate.concretize");
    const double simulate_s = total(l, "validate.simulate");
    const double compare_s = total(l, "validate.compare");
    const double tour_s = total(l, symbolic_ ? "sym.tour" : "tour.generate");
    v["testmodel.build_s"] = total(l, "testmodel.build");
    v["sym.extract_explicit_s"] = total(l, "sym.extract_explicit");
    v["fsm.states"] = static_cast<double>(result.model_states);
    v["fsm.transitions"] = static_cast<double>(result.model_transitions);
    v["sym.tr_build_s"] = total(l, "sym.tr_build");
    v["sym.reach_s"] = total(l, "sym.reach");
    v["sym.count_s"] = total(l, "sym.count");
    if (result.symbolic_stats.has_value() && result.bdd_stats.has_value()) {
      const auto& fs = *result.symbolic_stats;
      const auto& bs = *result.bdd_stats;
      v["sym.reach_iterations"] = fs.reachability_iterations;
      v["bdd.tr_nodes"] = static_cast<double>(fs.transition_relation_nodes);
      v["bdd.peak_live_nodes"] = static_cast<double>(bs.peak_live_nodes);
      v["bdd.cache_hit_ratio"] =
          ratio(static_cast<double>(bs.cache_hits),
                static_cast<double>(bs.cache_lookups));
      v["bdd.unique_hit_ratio"] =
          ratio(static_cast<double>(bs.unique_hits),
                static_cast<double>(bs.unique_lookups));
      v["bdd.gc_runs"] = static_cast<double>(bs.gc_runs);
    }
    const auto steps = static_cast<double>(result.test_length);
    const auto sequence_count = static_cast<double>(result.sequences);
    v[symbolic_ ? "sym.tour_s" : "tour.generate_s"] = tour_s;
    v[symbolic_ ? "sym.tour_steps" : "tour.steps"] = steps;
    v[symbolic_ ? "sym.tour_sequences" : "tour.sequences"] = sequence_count;
    v["tour.longest_share"] = longest_share(traced.sequences);
    v["validate.concretize_s"] = concretize_s;
    v["validate.concretize_item_s.max"] =
        capture.get(obs::Stage::kConcretize, "program").max;
    v["validate.simulate_s"] = simulate_s;
    v["validate.compare_s"] = compare_s;
    std::size_t compare_programs = 0;
    for (const auto& e : result.exposures) compare_programs += e.programs_run;
    v["validate.compare_programs"] = static_cast<double>(compare_programs);
    const auto cycles = static_cast<double>(result.total_impl_cycles());
    v["dlx.impl_cycles"] = cycles;
    v["validate.sim_cycles_per_s"] = ratio(cycles, simulate_s + compare_s);
    v["obs.telemetry_s"] = total(l, "obs.telemetry");
    v["runtime.queue_wait_s"] = capture.queue_wait();
    const double item_s = capture.get(obs::Stage::kConcretize, "program").sum +
                          capture.get(obs::Stage::kSimulate, "clean_run").sum +
                          capture.get(obs::Stage::kCompare, "bug").sum;
    v["runtime.busy_share"] =
        busy_share(item_s, lanes_, concretize_s + simulate_s + compare_s);
    v["unaccounted_s"] = l.unaccounted;

    // Outside the job: the same concretization on one lane, for the
    // speedup the job's lanes achieved.
    {
      runtime::ThreadPool one(1);
      std::vector<validate::ConcretizedProgram> out(traced.sequences.size());
      const auto t0 = std::chrono::steady_clock::now();
      pipeline::ConcretizeStage::run_batch(*traced.built, traced.sequences, 0,
                                           out, one,
                                           options_.cancel, obs::null_sink());
      v["validate.concretize_speedup"] =
          ratio(seconds_since(t0), concretize_s);
    }
    return check_result(result);
  }

 private:
  std::string check_result(const core::CampaignResult& r) {
    if (!r.clean_pass) return "clean implementation failed a program";
    if (r.bugs_exposed() != bugs_.size()) {
      return "exposed " + std::to_string(r.bugs_exposed()) + " of " +
             std::to_string(bugs_.size()) + " bugs";
    }
    if (r.transition_coverage != 1.0) return "transition coverage below 1";
    const std::string hash = report_hash(r);
    if (reference_hash_.empty()) reference_hash_ = hash;
    if (hash != reference_hash_) {
      return "report hash " + hash + " differs from " + reference_hash_;
    }
    return {};
  }

  /// The traced job's result, plus the test set and model it ran on (kept
  /// for the one-lane concretize measurement after the job).
  struct TracedCampaign {
    core::CampaignResult result;
    std::vector<std::vector<std::vector<bool>>> sequences;
    std::unique_ptr<testmodel::BuiltTestModel> built;
  };

  /// ValidationPipeline::run for this workload's options (no store,
  /// monitor, budgets, resume or VCD), one span per layer call.
  TracedCampaign traced_body(Tracer& tracer, std::size_t root,
                             LatencyCapture& capture) {
    const core::CampaignOptions& opt = options_;
    TracedCampaign out;
    core::CampaignResult& result = out.result;
    auto& sequences = out.sequences;
    auto& built = out.built;
    std::unique_ptr<obs::MetricsRegistry> registry;
    obs::MultiSink sink;
    sink.add(&capture);
    if (!symbolic_) {
      registry = std::make_unique<obs::MetricsRegistry>();
      sink.add(registry.get());
    }
    {
      Scope s(tracer, "testmodel.build", root);
      built = std::make_unique<testmodel::BuiltTestModel>(
          testmodel::build_dlx_control_model(opt.model_options));
    }
    result.latches = built->num_latches;
    result.primary_inputs = built->num_inputs;
    std::unique_ptr<model::TestModel> model;
    model::ExplicitModel* explicit_model = nullptr;
    if (symbolic_) {
      {
        Scope s(tracer, "sym.tr_build", root);
        model = std::make_unique<model::SymbolicModel>(built->circuit,
                                                       opt.reorder);
      }
      {
        Scope s(tracer, "sym.reach", root);
        result.model_states =
            static_cast<std::size_t>(model->count_reachable_states());
      }
      Scope s(tracer, "sym.count", root);
      result.model_transitions =
          static_cast<std::size_t>(model->count_reachable_transitions());
    } else {
      sym::ExplicitModel extraction;
      {
        Scope s(tracer, "sym.extract_explicit", root);
        extraction = sym::extract_explicit(built->circuit, opt.max_states);
      }
      if (extraction.truncated) {
        throw std::runtime_error("explicit extraction exceeded max_states");
      }
      Scope s(tracer, "model.count", root);
      auto em = std::make_unique<model::ExplicitModel>(std::move(extraction));
      explicit_model = em.get();
      model = std::move(em);
      result.model_states =
          static_cast<std::size_t>(model->count_reachable_states());
      result.model_transitions =
          static_cast<std::size_t>(model->count_reachable_transitions());
    }
    result.backend = model->backend();
    {
      Scope s(tracer, "sym.snapshot", root);
      pipeline::SymbolicSnapshotStage::run(opt, *built, *model, sink, result,
                                           nullptr, {});
    }
    std::optional<obs::CoverageTelemetryCollector> telemetry;
    if (opt.collect_coverage_telemetry) {
      telemetry.emplace(*model, opt.telemetry_curve_budget);
    }
    const char* tour_span = symbolic_ ? "sym.tour" : "tour.generate";
    std::unique_ptr<model::SequenceSource> stream;
    {
      Scope s(tracer, tour_span, root);
      stream = pipeline::GenerateStage::open(opt, *model, explicit_model,
                                             sink, nullptr, {});
    }
    result.generator = opt.generator;

    runtime::ThreadPool pool(opt.threads);
    const std::size_t window = 2 * pool.size();
    std::vector<validate::ConcretizedProgram> programs;
    bool stream_done = false;
    while (!stream_done) {
      std::vector<std::vector<std::vector<bool>>> batch;
      {
        Scope s(tracer, tour_span, root);
        while (batch.size() < window) {
          const auto t0 = std::chrono::steady_clock::now();
          auto seq = stream->next_sequence();
          const double pull_seconds = seconds_since(t0);
          if (!seq.has_value()) {
            stream_done = true;
            break;
          }
          const std::size_t index = sequences.size() + batch.size();
          sink.item(obs::Stage::kTour, "sequence", index, seq->size());
          sink.latency(obs::Stage::kTour, "sequence", index, pull_seconds);
          batch.push_back(std::move(*seq));
        }
      }
      if (batch.empty()) continue;
      const std::size_t first = result.clean_runs.size();
      std::vector<validate::ConcretizedProgram> batch_programs(batch.size());
      {
        Scope s(tracer, "validate.concretize", root);
        pipeline::ConcretizeStage::run_batch(*built, batch, first,
                                             batch_programs, pool, opt.cancel,
                                             sink);
      }
      for (std::size_t i = 0; i < batch_programs.size(); ++i) {
        sink.item(obs::Stage::kConcretize, "program", first + i,
                  batch_programs[i].instructions.size());
      }
      std::vector<pipeline::RunMetrics> batch_runs(batch.size());
      {
        Scope s(tracer, "validate.simulate", root);
        pipeline::SimulateStage::run_batch(batch_programs, first,
                                           opt.max_cycles, batch_runs, pool,
                                           opt.cancel, sink);
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        sink.item(obs::Stage::kSimulate, "clean_run", first + i,
                  batch_runs[i].impl_cycles);
        result.sequences += 1;
        result.test_length += batch[i].size();
        result.clean_runs.push_back(batch_runs[i]);
        if (telemetry.has_value()) {
          Scope s(tracer, "obs.telemetry", root);
          telemetry->commit_sequence(batch[i]);
        }
        result.total_instructions += batch_programs[i].instructions.size();
        programs.push_back(std::move(batch_programs[i]));
        sequences.push_back(std::move(batch[i]));
      }
    }
    {
      const auto summary = stream->summary();
      result.state_coverage = summary.coverage.state_coverage();
      result.transition_coverage = summary.coverage.transition_coverage();
    }
    result.clean_pass =
        std::all_of(result.clean_runs.begin(), result.clean_runs.end(),
                    [](const pipeline::RunMetrics& r) { return r.passed; });
    {
      Scope s(tracer, "validate.compare", root);
      result.exposures = pipeline::CompareStage::run(
          bugs_, programs, opt.max_cycles, pool, opt.cancel, sink);
    }
    for (const auto& r : result.clean_runs) {
      if (r.budget_exhausted) ++result.runs_inconclusive;
    }
    for (const auto& e : result.exposures) {
      if (e.budget_exhausted) ++result.runs_inconclusive;
    }
    if (telemetry.has_value()) {
      auto t = telemetry->snapshot();
      for (const auto& e : result.exposures) {
        obs::ExposureLatency lat;
        lat.exposed = e.exposed;
        if (e.exposing_sequence.has_value()) {
          lat.sequences = *e.exposing_sequence + 1;
        }
        t.bug_exposure_latency.push_back(lat);
      }
      result.coverage_telemetry = std::move(t);
    }
    if (registry != nullptr) result.metrics = registry->summary();
    return out;
  }

  std::size_t lanes_;
  bool symbolic_;
  std::vector<dlx::PipelineBug> bugs_;
  core::CampaignOptions options_;
  core::CampaignResult last_;
  std::string reference_hash_;
};

// ---- Theorem 3 (thm3_mutants) ----------------------------------------------

constexpr std::size_t kMutants = 400;

class MutantWorkload final : public Workload {
 public:
  explicit MutantWorkload(const WorkloadInputs& in)
      : lanes_(in.lanes),
        model_(sym::extract_explicit(
            testmodel::build_dlx_control_model(campaign_model_options())
                .circuit,
            100000)) {
    options_.mutant_sample = kMutants;
    options_.k_extension = 5;
    options_.exclude_equivalent = true;
    options_.packed = true;
    options_.threads = in.lanes;
    options_.seed = in.seed;
    const auto& m = model_.machine();
    reachable_transitions_ = m.reachable_transitions(model_.start()).size();
    reachable_states_ = m.num_reachable_states(model_.start());
    // Every reachable transition has one output mutant per other output
    // symbol and one transfer mutant per other reachable state
    // (errmodel::enumerate_output_errors / enumerate_transfer_errors).
    universe_ = static_cast<double>(reachable_transitions_) *
                static_cast<double>(m.output_alphabet_size() - 1 +
                                    reachable_states_ - 1);
  }

  void run_job() override {
    last_ = core::evaluate_mutant_coverage(model_, options_);
  }

  std::string check() override { return check_result(last_); }

  std::string run_traced(Tracer& tracer, std::size_t job,
                         LayerValues& v) override {
    const fsm::MealyMachine& machine = model_.machine();
    const fsm::StateId start = model_.start();
    const std::size_t root = tracer.begin_job(job);
    pipeline::MutantCoverageResult result;
    tour::TourSet set;
    {
      Scope s(tracer, "tour.generate", root);
      set = pipeline::generate_test_set(machine, start, options_.method,
                                        options_.random_length, options_.seed,
                                        options_.generator);
      for (auto& seq : set.sequences) {
        pipeline::extend_sequence(machine, start, seq, options_.k_extension);
      }
    }
    result.sequences = set.sequences.size();
    result.test_length = set.total_length();
    std::vector<errmodel::Mutation> mutants;
    double rss_growth = 0.0;
    {
      Scope s(tracer, "errmodel.sample", root);
      const double before = peak_rss_mb();
      mutants = errmodel::sample_mutations(
          machine, start, machine.output_alphabet_size(),
          options_.mutant_sample,
          runtime::derive_stream(options_.seed,
                                 runtime::Stream::kMutantStream));
      rss_growth = peak_rss_mb() - before;
    }
    double queue_wait = 0.0;
    std::vector<Verdict> verdicts;
    {
      Scope s(tracer, "errmodel.replay", root);
      verdicts = replay(tracer, s.id(), mutants, set, lanes_, queue_wait);
    }
    fold(verdicts, result);
    tracer.end(root);

    const JobLedger l = ledger(tracer.spans(), root);
    const double replay_s = total(l, "errmodel.replay");
    const auto block = l.by_name.find("errmodel.replay.block");
    const auto equivalence = l.by_name.find("fsm.equivalence");
    const bool has_block = block != l.by_name.end();
    const bool has_equivalence = equivalence != l.by_name.end();
    v["fsm.states"] = static_cast<double>(reachable_states_);
    v["fsm.transitions"] = static_cast<double>(reachable_transitions_);
    v["tour.generate_s"] = total(l, "tour.generate");
    v["tour.steps"] = static_cast<double>(result.test_length);
    v["tour.sequences"] = static_cast<double>(result.sequences);
    v["tour.longest_share"] = longest_share(set.sequences);
    v["errmodel.sample_s"] = total(l, "errmodel.sample");
    v["errmodel.sample_rss_mb"] = rss_growth;
    v["errmodel.universe"] = universe_;
    v["errmodel.drawn_share"] =
        ratio(static_cast<double>(mutants.size()), universe_);
    v["errmodel.replay_s"] = replay_s;
    v["errmodel.blocks"] = has_block ? static_cast<double>(block->second.count)
                                     : 0.0;
    v["errmodel.replay_block_s.max"] = has_block ? block->second.max : 0.0;
    v["fsm.equivalence_s"] = has_equivalence ? equivalence->second.total : 0.0;
    v["fsm.equivalence_checks"] =
        has_equivalence ? static_cast<double>(equivalence->second.count)
                        : 0.0;
    v["runtime.queue_wait_s"] = queue_wait;
    v["runtime.busy_share"] = busy_share(
        has_block ? block->second.total : 0.0, lanes_, replay_s);
    v["unaccounted_s"] = l.unaccounted;

    // Outside the job: the same replay on one lane, for the speedup the
    // job's lanes achieved.
    {
      Tracer side;
      const std::size_t side_root = side.begin_job(0);
      double side_wait = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      (void)replay(side, side_root, mutants, set, 1, side_wait);
      v["errmodel.replay_speedup"] = ratio(seconds_since(t0), replay_s);
    }
    return check_result(result);
  }

 private:
  struct Verdict {
    bool exposed = false;
    bool equivalent = false;
    std::size_t exposing_sequence = 0;  ///< 1-based; set when exposed
  };

  /// MutantReplayStage's packed replay: blocks of 64 mutants sharded over
  /// a pool of `lanes`, with the equivalence check of every unexposed
  /// mutant inside its block. One span per block and per check.
  std::vector<Verdict> replay(Tracer& tracer, std::size_t parent,
                              const std::vector<errmodel::Mutation>& mutants,
                              const tour::TourSet& set, std::size_t lanes,
                              double& queue_wait) const {
    const fsm::MealyMachine& machine = model_.machine();
    const fsm::StateId start = model_.start();
    constexpr std::size_t kLanes = errmodel::PackedMutantBlock::kLanes;
    std::vector<Verdict> verdicts(mutants.size());
    std::mutex wait_mutex;
    const runtime::ThreadPool::QueueWaitObserver observer =
        [&](std::size_t, double wait) {
          const std::lock_guard lock(wait_mutex);
          queue_wait += wait;
        };
    runtime::ThreadPool pool(lanes);
    pool.for_each_index(
        (mutants.size() + kLanes - 1) / kLanes,
        [&](std::size_t b) {
          Scope block_span(tracer, "errmodel.replay.block", parent);
          const std::size_t base = b * kLanes;
          const std::size_t len = std::min(kLanes, mutants.size() - base);
          const errmodel::PackedMutantBlock block(
              machine, std::span(mutants).subspan(base, len));
          std::uint64_t active = len == kLanes
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << len) - 1;
          for (std::size_t s = 0; s < set.sequences.size() && active != 0;
               ++s) {
            const std::uint64_t hit =
                block.exposes(start, set.sequences[s], active);
            for (std::uint64_t w = hit; w != 0; w &= w - 1) {
              const auto lane = static_cast<std::size_t>(std::countr_zero(w));
              verdicts[base + lane].exposed = true;
              verdicts[base + lane].exposing_sequence = s + 1;
            }
            active &= ~hit;
          }
          for (std::size_t lane = 0; lane < len; ++lane) {
            Verdict& verdict = verdicts[base + lane];
            if (verdict.exposed || !options_.exclude_equivalent) continue;
            Scope check(tracer, "fsm.equivalence", block_span.id());
            const auto mutant =
                errmodel::apply_mutation(machine, mutants[base + lane]);
            verdict.equivalent =
                fsm::check_equivalence(machine, start, mutant, start)
                    .equivalent;
          }
        },
        nullptr, &observer);
    return verdicts;
  }

  /// MutantReplayStage's sample-order fold.
  static void fold(const std::vector<Verdict>& verdicts,
                   pipeline::MutantCoverageResult& result) {
    for (const auto& v : verdicts) {
      if (v.equivalent) {
        ++result.equivalent;
        continue;
      }
      ++result.mutants;
      result.mutant_exposures.push_back(
          pipeline::MutantCoverageResult::MutantExposure{v.exposed,
                                                         v.exposing_sequence});
      if (v.exposed) {
        ++result.exposed;
        result.exposure_latency.push_back(v.exposing_sequence);
      }
    }
  }

  std::string check_result(const pipeline::MutantCoverageResult& r) {
    if (r.mutants + r.equivalent != kMutants) {
      return std::to_string(r.mutants) + " mutants + " +
             std::to_string(r.equivalent) + " equivalent != " +
             std::to_string(kMutants);
    }
    if (!reference_.has_value()) reference_ = r;
    if (r.mutant_exposures != reference_->mutant_exposures ||
        r.exposure_latency != reference_->exposure_latency ||
        r.exposed != reference_->exposed) {
      return "mutant verdicts differ from the first job's";
    }
    return {};
  }

  std::size_t lanes_;
  model::ExplicitModel model_;
  core::MutantCoverageOptions options_;
  std::size_t reachable_transitions_ = 0;
  std::size_t reachable_states_ = 0;
  double universe_ = 0.0;
  core::MutantCoverageResult last_;
  std::optional<core::MutantCoverageResult> reference_;
};

// ---- Symbolic reachability (symbolic_reach) ---------------------------------

/// Counts of the full-ISA reg4 model, pinned: any change to them is a
/// change of the program's answer, not of its speed.
constexpr double kReachStates = 13181428.0;
constexpr double kReachTransitions = 65014026260.0;
constexpr double kReachValidInputs = 9832.0;

class ReachWorkload final : public Workload {
 public:
  ReachWorkload() : options_(reach_model_options()) {}

  void run_job() override {
    const auto built = testmodel::build_dlx_control_model(options_);
    bdd::BddManager mgr;
    sym::SymbolicFsm fsm(mgr, built.circuit);
    (void)fsm.reachable_states();
    last_ = fsm.stats();
  }

  std::string check() override { return check_stats(last_); }

  std::string run_traced(Tracer& tracer, std::size_t job,
                         LayerValues& v) override {
    const std::size_t root = tracer.begin_job(job);
    sym::SymbolicFsmStats stats;
    bdd::BddStats bdd_stats;
    {
      testmodel::BuiltTestModel built;
      {
        Scope s(tracer, "testmodel.build", root);
        built = testmodel::build_dlx_control_model(options_);
      }
      std::optional<bdd::BddManager> mgr;
      std::optional<sym::SymbolicFsm> fsm;
      {
        Scope s(tracer, "sym.tr_build", root);
        mgr.emplace();
        fsm.emplace(*mgr, built.circuit);
      }
      {
        Scope s(tracer, "sym.reach", root);
        (void)fsm->reachable_states();
      }
      {
        Scope s(tracer, "sym.count", root);
        stats = fsm->stats();
      }
      bdd_stats = mgr->stats();
    }
    tracer.end(root);

    const JobLedger l = ledger(tracer.spans(), root);
    v["testmodel.build_s"] = total(l, "testmodel.build");
    v["fsm.states"] = stats.reachable_states;
    v["fsm.transitions"] = stats.transitions;
    v["sym.tr_build_s"] = total(l, "sym.tr_build");
    v["sym.reach_s"] = total(l, "sym.reach");
    v["sym.reach_iterations"] = stats.reachability_iterations;
    v["sym.count_s"] = total(l, "sym.count");
    v["bdd.tr_nodes"] = static_cast<double>(stats.transition_relation_nodes);
    v["bdd.peak_live_nodes"] = static_cast<double>(bdd_stats.peak_live_nodes);
    v["bdd.cache_hit_ratio"] =
        ratio(static_cast<double>(bdd_stats.cache_hits),
              static_cast<double>(bdd_stats.cache_lookups));
    v["bdd.unique_hit_ratio"] =
        ratio(static_cast<double>(bdd_stats.unique_hits),
              static_cast<double>(bdd_stats.unique_lookups));
    v["bdd.gc_runs"] = static_cast<double>(bdd_stats.gc_runs);
    v["unaccounted_s"] = l.unaccounted;
    return check_stats(stats);
  }

 private:
  static std::string check_stats(const sym::SymbolicFsmStats& s) {
    if (s.reachable_states != kReachStates ||
        s.transitions != kReachTransitions ||
        s.valid_input_combinations != kReachValidInputs) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "counts %.0f states / %.0f transitions / %.0f inputs "
                    "differ from the pinned ones",
                    s.reachable_states, s.transitions,
                    s.valid_input_combinations);
      return buf;
    }
    return {};
  }

  testmodel::TestModelOptions options_;
  sym::SymbolicFsmStats last_;
};

}  // namespace

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"testmodel.build_s", "s"},
      {"sym.extract_explicit_s", "s"},
      {"fsm.states", "count"},
      {"fsm.transitions", "count"},
      {"sym.tr_build_s", "s"},
      {"sym.reach_s", "s"},
      {"sym.reach_iterations", "count"},
      {"sym.count_s", "s"},
      {"bdd.tr_nodes", "count"},
      {"bdd.peak_live_nodes", "count"},
      {"bdd.cache_hit_ratio", "ratio"},
      {"bdd.unique_hit_ratio", "ratio"},
      {"bdd.gc_runs", "count"},
      {"sym.tour_s", "s"},
      {"sym.tour_steps", "count"},
      {"sym.tour_sequences", "count"},
      {"tour.generate_s", "s"},
      {"tour.steps", "count"},
      {"tour.sequences", "count"},
      {"tour.longest_share", "ratio"},
      {"validate.concretize_s", "s"},
      {"validate.concretize_item_s.max", "s"},
      {"validate.simulate_s", "s"},
      {"validate.compare_s", "s"},
      {"validate.compare_programs", "count"},
      {"dlx.impl_cycles", "count"},
      {"validate.sim_cycles_per_s", "1/s"},
      {"validate.concretize_speedup", "x"},
      {"obs.telemetry_s", "s"},
      {"errmodel.sample_s", "s"},
      {"errmodel.sample_rss_mb", "MB"},
      {"errmodel.universe", "count"},
      {"errmodel.drawn_share", "ratio"},
      {"errmodel.replay_s", "s"},
      {"errmodel.blocks", "count"},
      {"errmodel.replay_block_s.max", "s"},
      {"errmodel.replay_speedup", "x"},
      {"fsm.equivalence_s", "s"},
      {"fsm.equivalence_checks", "count"},
      {"runtime.queue_wait_s", "s"},
      {"runtime.busy_share", "ratio"},
      {"unaccounted_s", "s"},
      {"pipeline.glue_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "dlx_campaign", "thm3_mutants", "symbolic_reach", "symbolic_campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadInputs& inputs) {
  if (name == "dlx_campaign") {
    return std::make_unique<CampaignWorkload>(inputs, false);
  }
  if (name == "symbolic_campaign") {
    return std::make_unique<CampaignWorkload>(inputs, true);
  }
  if (name == "thm3_mutants") return std::make_unique<MutantWorkload>(inputs);
  if (name == "symbolic_reach") return std::make_unique<ReachWorkload>();
  return nullptr;
}

std::vector<dlx::PipelineBug> campaign_bugs(std::uint64_t seed) {
  using dlx::PipelineBug;
  static constexpr PipelineBug kBugs[] = {
      PipelineBug::kNoForwardExMemA,
      PipelineBug::kNoForwardExMemB,
      PipelineBug::kNoForwardMemWbA,
      PipelineBug::kNoForwardMemWbB,
      PipelineBug::kNoIdBypass,
      PipelineBug::kNoLoadUseStall,
      PipelineBug::kInterlockChecksRs1Only,
      PipelineBug::kNoSquashOnTakenBranch,
      PipelineBug::kSquashOnlyFetch,
      PipelineBug::kBranchTargetOffByFour,
      PipelineBug::kWritebackSelectsAluForLoad,
      PipelineBug::kStoreDataStale,
      PipelineBug::kBranchUsesStaleCondition,
      PipelineBug::kForwardPriorityWrong,
      PipelineBug::kInterlockMissesDoubleHazard,
      PipelineBug::kForwardFromR0,
  };
  std::vector<PipelineBug> bugs;
  for (const std::size_t i : seeded_permutation(std::size(kBugs), seed)) {
    bugs.push_back(kBugs[i]);
  }
  return bugs;
}

}  // namespace perfbench
