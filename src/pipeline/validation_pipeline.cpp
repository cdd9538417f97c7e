#include "pipeline/validation_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/vcd.hpp"
#include "obs/monitor_server.hpp"
#include "pipeline/stages.hpp"
#include "pipeline/store_keys.hpp"
#include "runtime/thread_pool.hpp"
#include "store/codec.hpp"
#include "store/tour_cache.hpp"
#include "sym/circuit_replay.hpp"
#include "sym/packed_logic_sim.hpp"
#include "validate/harness.hpp"

namespace simcov::pipeline {

namespace {

/// True when the stage's accumulated span time has passed its deadline.
bool past_deadline(const StageBudget& budget,
                   const obs::MetricsRegistry& run_metrics, obs::Stage stage) {
  return budget.deadline_seconds.has_value() &&
         span_seconds(run_metrics.summary(), stage) >=
             *budget.deadline_seconds;
}

/// True when the stage has processed its item cap.
bool items_exhausted(const StageBudget& budget, std::size_t items) {
  return budget.max_items.has_value() && items >= *budget.max_items;
}

/// Serializes the committed clean-run prefix into a checkpoint payload.
std::vector<std::uint8_t> checkpoint_payload(
    const std::vector<RunMetrics>& clean_runs) {
  store::CampaignCheckpoint ckpt;
  ckpt.clean_runs.reserve(clean_runs.size());
  for (const RunMetrics& r : clean_runs) {
    ckpt.clean_runs.push_back(store::CheckpointRun{
        r.sequence, r.impl_cycles, r.checkpoints, r.passed,
        r.budget_exhausted});
  }
  return store::to_payload(ckpt);
}

/// Guarantees CampaignMonitor::end_campaign on every exit path (the
/// watchdog thread and the queue-depth hook must not outlive the pool and
/// token they observe).
struct MonitorGuard {
  obs::CampaignMonitor* monitor;
  ~MonitorGuard() {
    if (monitor != nullptr) monitor->end_campaign();
  }
};

}  // namespace

CampaignResult ValidationPipeline::run(
    std::span<const dlx::PipelineBug> bugs) {
  // The run's own registry: every per-stage second of the result —
  // PhaseTimings, StageReport::seconds and the budget deadlines — is read
  // from its span_ns histograms. It is private to the run because the
  // caller-owned registries (options_.metrics, the monitor's) may span
  // several campaigns.
  obs::MetricsRegistry run_metrics;
  obs::MultiSink sink;
  sink.add(&run_metrics);
  sink.add(options_.sink);
  sink.add(options_.metrics);
  // The live monitor's private registry rides the same fan-out; it never
  // lands on the result, so the report is identical with it on or off.
  if (options_.monitor != nullptr) sink.add(&options_.monitor->sink());
  const CancellationToken& cancel = options_.cancel;

  CampaignResult result;
  auto build = ModelBuildStage::run(options_, sink, result);
  if (build.external_circuit && !bugs.empty()) {
    throw std::invalid_argument(
        "run_campaign: DLX pipeline bugs cannot run against an external "
        "circuit (CampaignOptions::circuit_path); pass an empty bug list");
  }
  // External circuits replace concretize/simulate with direct replay; one
  // simulator serves every worker (step() is const and allocation-local).
  std::optional<sym::PackedCircuitSim> circuit_sim;
  if (build.external_circuit) circuit_sim.emplace(build.built->circuit);

  // Coverage telemetry replays committed sequences through the model on the
  // coordinator thread — the one account that is identical for live,
  // store-replayed (no live tracker), and resumed campaigns.
  // An attached monitor needs the same account for its live progress feed,
  // so it forces the collector on; the report section itself stays gated
  // on collect_coverage_telemetry below.
  std::optional<obs::CoverageTelemetryCollector> telemetry;
  if (options_.collect_coverage_telemetry || options_.monitor != nullptr) {
    telemetry.emplace(*build.model, options_.telemetry_curve_budget);
  }

  // The artifact store (optional): caches tours and symbolic snapshots
  // across campaigns, and checkpoints this campaign's committed prefix.
  std::unique_ptr<store::ArtifactStore> store;
  CampaignStoreKeys keys;
  if (!options_.store_dir.empty()) {
    store = std::make_unique<store::ArtifactStore>(
        store::StoreOptions{options_.store_dir, options_.store_max_bytes});
    keys = campaign_store_keys(options_, build.built->circuit,
                               result.backend, bugs);
    result.report_key = keys.report;
  }

  SymbolicSnapshotStage::run(options_, *build.built, *build.model, sink,
                             result, store.get(), keys.symbolic);

  auto stream = GenerateStage::open(options_, *build.model,
                                    build.explicit_model, sink, store.get(),
                                    keys.tour);
  result.generator = options_.generator;

  // Resume: restore the checkpointed prefix of a previously killed campaign
  // with this key. The sequences themselves are re-pulled from the
  // deterministic stream and re-concretized below (cheap, and it advances
  // the stream's coverage tracker exactly as the original run did); only
  // their simulation verdicts are restored instead of re-run.
  std::vector<store::CheckpointRun> restore;
  std::size_t restored_used = 0;
  if (store != nullptr && options_.resume) {
    if (auto payload = store->load(store::ArtifactKind::kCheckpoint,
                                   keys.checkpoint, obs::Stage::kSimulate,
                                   sink)) {
      try {
        restore = store::checkpoint_from_payload(*payload).clean_runs;
      } catch (const store::CodecError&) {
        restore.clear();  // undecodable checkpoint: full re-run
      }
    }
  }

  // One worker pool for every sharded loop below. Each loop writes into
  // pre-sized per-index slots, so the outcome is independent of scheduling.
  runtime::ThreadPool pool(options_.threads);
  const std::size_t window = options_.max_in_flight_sequences != 0
                                 ? options_.max_in_flight_sequences
                                 : 2 * pool.size();

  // Arm the live monitor: progress totals, stall evidence (the pool's
  // backlog), and the cancellation hook a cancel_on_stall watchdog trips.
  // The guard is declared after `pool`, so its end_campaign — which
  // detaches these hooks and stops the watchdog thread — runs first on
  // every exit path.
  MonitorGuard monitor_guard{options_.monitor};
  if (options_.monitor != nullptr) {
    options_.monitor->begin_campaign(
        result.model_transitions,
        [&pool] { return static_cast<std::uint64_t>(pool.pending()); },
        [cancel] { cancel.cancel(); });
  }

  std::vector<validate::ConcretizedProgram> programs;
  // Committed sequences retained for the VCD export (they otherwise die at
  // batch commit). Store-replayed and resumed campaigns re-pull the same
  // deterministic stream, so the retained set is always the full test set.
  std::vector<std::vector<std::vector<bool>>> vcd_sequences;
  auto tour_status = obs::StageStatus::kOk;
  auto concretize_status = obs::StageStatus::kOk;
  auto simulate_status = obs::StageStatus::kOk;
  bool stream_done = false;
  std::size_t yielded = 0;        // sequences pulled from the stream
  std::size_t in_flight_peak = 0;
  std::size_t last_checkpoint = 0;  // clean runs covered by a checkpoint

  while (!stream_done) {
    // Budgets and cancellation truncate at batch boundaries only, so a
    // run without budgets never diverges from the monolithic engine.
    if (cancel.cancelled()) {
      tour_status = obs::StageStatus::kCancelled;
      break;
    }
    if (items_exhausted(options_.budgets.tour, yielded) ||
        past_deadline(options_.budgets.tour, run_metrics, obs::Stage::kTour)) {
      tour_status = obs::StageStatus::kBudgetExhausted;
      break;
    }
    if (items_exhausted(options_.budgets.concretize, programs.size()) ||
        past_deadline(options_.budgets.concretize, run_metrics,
                      obs::Stage::kConcretize)) {
      concretize_status = obs::StageStatus::kBudgetExhausted;
      break;
    }
    if (items_exhausted(options_.budgets.simulate,
                        result.clean_runs.size()) ||
        past_deadline(options_.budgets.simulate, run_metrics,
                      obs::Stage::kSimulate)) {
      simulate_status = obs::StageStatus::kBudgetExhausted;
      break;
    }

    // While restoring from a checkpoint, cap the pull so a batch never
    // straddles the restored/live boundary.
    const std::size_t restore_remaining = restore.size() - restored_used;
    const std::size_t pull_cap =
        restore_remaining > 0 ? std::min(window, restore_remaining) : window;

    // Pull one window of sequences from the tour stream.
    std::vector<std::vector<std::vector<bool>>> batch;
    {
      obs::ScopedSpan span(sink, obs::Stage::kTour);
      while (batch.size() < pull_cap &&
             !items_exhausted(options_.budgets.tour,
                              yielded + batch.size())) {
        const auto pull_start = std::chrono::steady_clock::now();
        auto seq = stream->next_sequence();
        const double pull_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          pull_start)
                .count();
        if (!seq.has_value()) {
          stream_done = true;
          break;
        }
        sink.item(obs::Stage::kTour, "sequence", yielded + batch.size(),
                  seq->size());
        sink.latency(obs::Stage::kTour, "sequence", yielded + batch.size(),
                     pull_seconds);
        batch.push_back(std::move(*seq));
      }
    }
    if (batch.empty()) continue;  // loop re-checks budgets / termination
    yielded += batch.size();
    in_flight_peak = std::max(in_flight_peak, batch.size());
    const std::size_t first = result.clean_runs.size();

    // Concretize the batch (backend-neutral: each tour step is already a
    // primary-input bit vector). External circuits skip the stage — their
    // sequences replay directly, no DLX program in between.
    std::vector<validate::ConcretizedProgram> batch_programs(
        build.external_circuit ? 0 : batch.size());
    if (!build.external_circuit) {
      ConcretizeStage::run_batch(*build.built, batch, first, batch_programs,
                                 pool, cancel, sink);
      if (cancel.cancelled()) {
        // The pool drained mid-batch: unclaimed slots are empty. Drop the
        // whole batch — per-batch atomicity keeps the retained prefix exact.
        concretize_status = obs::StageStatus::kCancelled;
        break;
      }
      for (std::size_t i = 0; i < batch_programs.size(); ++i) {
        sink.item(obs::Stage::kConcretize, "program", first + i,
                  batch_programs[i].instructions.size());
      }
    }

    // Clean runs: the bug-free implementation must pass everything. A
    // restored batch skips the simulations — its verdicts come from the
    // checkpoint (recorded under identical options, so they are exactly
    // what re-simulation would produce).
    std::vector<RunMetrics> batch_runs(batch.size());
    const bool batch_restored = restore_remaining > 0;
    if (batch_restored) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const store::CheckpointRun& r = restore[restored_used + i];
        batch_runs[i] = RunMetrics{first + i, r.impl_cycles, r.checkpoints,
                                   r.passed, r.budget_exhausted};
      }
      restored_used += batch.size();
    } else if (build.external_circuit) {
      CircuitReplayStage::run_batch(*circuit_sim, batch, first,
                                    options_.max_cycles, batch_runs, pool,
                                    cancel, sink);
      if (cancel.cancelled()) {
        simulate_status = obs::StageStatus::kCancelled;
        break;
      }
    } else {
      SimulateStage::run_batch(batch_programs, first, options_.max_cycles,
                               batch_runs, pool, cancel, sink);
      if (cancel.cancelled()) {
        simulate_status = obs::StageStatus::kCancelled;
        break;
      }
    }

    // The batch survived both pools: commit it. The raw tour sequences die
    // here — only the concretized programs persist (for CompareStage).
    for (std::size_t i = 0; i < batch.size(); ++i) {
      sink.item(obs::Stage::kSimulate, "clean_run", first + i,
                batch_runs[i].impl_cycles);
      result.sequences += 1;
      result.test_length += batch[i].size();
      result.clean_runs.push_back(batch_runs[i]);
      if (telemetry.has_value()) {
        telemetry->commit_sequence(batch[i]);
        if (options_.monitor != nullptr) {
          options_.monitor->on_commit(result.sequences, result.test_length,
                                      telemetry->states_visited(),
                                      telemetry->transitions_covered());
        }
      }
      if (!options_.vcd_path.empty()) vcd_sequences.push_back(batch[i]);
      if (!build.external_circuit) {
        result.total_instructions += batch_programs[i].instructions.size();
        programs.push_back(std::move(batch_programs[i]));
      }
    }

    // Periodic checkpoint of the committed prefix. Restored batches only
    // advance the checkpoint cursor — their prefix is already on disk.
    if (batch_restored) {
      last_checkpoint = result.clean_runs.size();
    } else if (store != nullptr && options_.checkpoint_every > 0 &&
               result.clean_runs.size() - last_checkpoint >=
                   options_.checkpoint_every) {
      obs::ScopedSpan span(sink, obs::Stage::kSimulate);
      store->publish(store::ArtifactKind::kCheckpoint, keys.checkpoint,
                     checkpoint_payload(result.clean_runs),
                     obs::Stage::kSimulate, sink);
      last_checkpoint = result.clean_runs.size();
    }
  }
  if (store != nullptr) store->add_resumed_sequences(restored_used);

  // A level snapshot, not an occurrence: gauge (max semantics), so sinks
  // that sum counters can never mis-aggregate it.
  sink.gauge(obs::Stage::kTour, "sequences_in_flight_peak", in_flight_peak);
  {
    // Coverage statistics come from the stream's own tracker, so a
    // truncated tour reports the coverage of what was actually yielded.
    const auto summary = stream->summary();
    result.state_coverage = summary.coverage.state_coverage();
    result.transition_coverage = summary.coverage.transition_coverage();
  }
  result.clean_pass =
      std::all_of(result.clean_runs.begin(), result.clean_runs.end(),
                  [](const RunMetrics& r) { return r.passed; });
  sink.status(obs::Stage::kTour, tour_status);
  sink.status(obs::Stage::kConcretize, concretize_status);
  sink.status(obs::Stage::kSimulate, simulate_status);

  const bool stream_complete = stream_done &&
                               tour_status == obs::StageStatus::kOk &&
                               concretize_status == obs::StageStatus::kOk &&
                               simulate_status == obs::StageStatus::kOk;
  if (store != nullptr) {
    if (stream_complete) {
      // The tour ran to completion: publish it if this run generated it
      // live (a stored tour came from the store in the first place).
      if (auto* rec =
              dynamic_cast<store::RecordingTourStream*>(stream.get())) {
        obs::ScopedSpan span(sink, obs::Stage::kTour);
        store->publish(store::ArtifactKind::kTour, keys.tour,
                       rec->artifact(), obs::Stage::kTour, sink);
      }
    } else if (options_.checkpoint_every > 0 &&
               result.clean_runs.size() > last_checkpoint) {
      // Truncated / cancelled: flush a final checkpoint so a resume loses
      // none of the committed prefix.
      obs::ScopedSpan span(sink, obs::Stage::kSimulate);
      store->publish(store::ArtifactKind::kCheckpoint, keys.checkpoint,
                     checkpoint_payload(result.clean_runs),
                     obs::Stage::kSimulate, sink);
    }
  }

  // Per-bug exposure runs over whatever test set was produced — a
  // budget-truncated set still yields meaningful (if inconclusive)
  // exposure data. A cancelled campaign skips the stage entirely.
  auto compare_status = obs::StageStatus::kOk;
  std::size_t bugs_compared = 0;
  if (cancel.cancelled()) {
    compare_status = obs::StageStatus::kCancelled;
  } else {
    auto compare_bugs = bugs;
    if (options_.budgets.compare.max_items.has_value() &&
        compare_bugs.size() > *options_.budgets.compare.max_items) {
      compare_bugs = compare_bugs.first(*options_.budgets.compare.max_items);
      compare_status = obs::StageStatus::kBudgetExhausted;
    }
    result.exposures = CompareStage::run(compare_bugs, programs,
                                         options_.max_cycles, pool, cancel,
                                         sink);
    bugs_compared = result.exposures.size();
    if (cancel.cancelled()) {
      // Cancelled mid-compare: partial exposure slots are meaningless.
      result.exposures.clear();
      bugs_compared = 0;
      compare_status = obs::StageStatus::kCancelled;
    } else if (past_deadline(options_.budgets.compare, run_metrics,
                             obs::Stage::kCompare)) {
      // The compare pool is one indivisible shard pass; its deadline is
      // reported post-hoc rather than truncating mid-bug.
      compare_status = obs::StageStatus::kBudgetExhausted;
    }
  }
  sink.status(obs::Stage::kCompare, compare_status);

  // A campaign that ran to completion no longer needs its checkpoint.
  if (store != nullptr && stream_complete &&
      compare_status == obs::StageStatus::kOk) {
    store->erase(store::ArtifactKind::kCheckpoint, keys.checkpoint);
  }

  // VCD export: replay every committed sequence through the campaign
  // circuit (external or DLX) and serialize the traces. Deterministic —
  // identical campaigns, at any thread count, warm or cold, produce
  // byte-identical waveforms.
  if (!options_.vcd_path.empty()) {
    const sym::CircuitReplayer replayer(build.built->circuit);
    io::VcdWriter vcd(build.built->circuit,
                      build.circuit_name.empty() ? "dlx"
                                                 : build.circuit_name);
    for (std::size_t i = 0; i < vcd_sequences.size(); ++i) {
      vcd.add_sequence(
          "seq" + std::to_string(i),
          replayer.replay(vcd_sequences[i], options_.max_cycles));
    }
    vcd.write_file(options_.vcd_path);
  }

  for (const auto& r : result.clean_runs) {
    if (r.budget_exhausted) ++result.runs_inconclusive;
  }
  for (const auto& e : result.exposures) {
    if (e.budget_exhausted) ++result.runs_inconclusive;
  }

  // Every span of the run has been emitted by now: one snapshot feeds both
  // the timings view and the stage reports below.
  const obs::MetricsSummary run_summary = run_metrics.summary();
  result.timings = timings_from_spans(run_summary);

  // Store-backed performance baseline: compare this run's phase timings
  // against the summary archived under the same campaign fingerprint,
  // publishing one on first sight. Store activity lands in the stats
  // snapshot below.
  if (store != nullptr && options_.baseline_check) {
    store::PerfBaseline current;
    current.sequences = result.sequences;
    current.test_steps = result.test_length;
    current.total_impl_cycles = result.total_impl_cycles();
    current.total_seconds = result.timings.total_seconds;
    current.tour_seconds = result.timings.tour_seconds;
    current.concretize_seconds = result.timings.concretize_seconds;
    current.simulate_seconds = result.timings.simulate_seconds;
    BaselineComparison cmp;
    cmp.tolerance = options_.baseline_tolerance;
    cmp.current = current;
    if (auto payload = store->load(store::ArtifactKind::kBaseline,
                                   keys.report, obs::Stage::kSimulate,
                                   sink)) {
      try {
        cmp.baseline = store::baseline_from_payload(*payload);
        cmp.found = true;
      } catch (const store::CodecError&) {
        cmp.found = false;  // undecodable baseline: re-publish below
      }
    }
    if (cmp.found) {
      if (cmp.baseline.total_seconds > 0.0) {
        cmp.wall_ratio = current.total_seconds / cmp.baseline.total_seconds;
      }
      // A 50ms absolute floor keeps sub-second smoke campaigns from
      // flagging scheduler noise as a regression.
      cmp.regression =
          current.total_seconds >
          0.05 + cmp.baseline.total_seconds * (1.0 + cmp.tolerance);
    } else {
      store->publish(store::ArtifactKind::kBaseline, keys.report,
                     store::to_payload(current), obs::Stage::kSimulate,
                     sink);
      cmp.baseline = current;
    }
    result.baseline = cmp;
  }

  if (store != nullptr) result.store_stats = store->stats();
  const bool symbolic_ran =
      options_.collect_symbolic_stats ||
      result.backend == model::Backend::kSymbolic;
  auto report = [&](obs::Stage stage, obs::StageStatus status,
                    std::size_t items) {
    result.stage_reports.push_back(
        StageReport{stage, status, items, span_seconds(run_summary, stage)});
  };
  report(obs::Stage::kModelBuild, obs::StageStatus::kOk, 1);
  if (symbolic_ran) report(obs::Stage::kSymbolic, obs::StageStatus::kOk, 1);
  report(obs::Stage::kTour, tour_status, yielded);
  report(obs::Stage::kConcretize, concretize_status, programs.size());
  report(obs::Stage::kSimulate, simulate_status, result.clean_runs.size());
  report(obs::Stage::kCompare, compare_status, bugs_compared);

  if (telemetry.has_value() && options_.collect_coverage_telemetry) {
    auto t = telemetry->snapshot();
    // Exposure latency comes from the compare stage's per-bug first-exposing
    // indices (committed order), one entry per compared bug.
    t.bug_exposure_latency.reserve(result.exposures.size());
    for (const auto& e : result.exposures) {
      obs::ExposureLatency lat;
      lat.exposed = e.exposed;
      if (e.exposing_sequence.has_value()) {
        lat.sequences = *e.exposing_sequence + 1;  // 1-based
      }
      t.bug_exposure_latency.push_back(lat);
    }
    result.coverage_telemetry = std::move(t);
  }
  // Snapshot last, so the summary covers every event the campaign emitted.
  if (options_.metrics != nullptr) {
    result.metrics = options_.metrics->summary();
  }
  return result;
}

}  // namespace simcov::pipeline
