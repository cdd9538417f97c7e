// End-to-end validation campaigns — the complete Figure 1 flow, and the
// abstract (machine-level) completeness experiments behind Theorem 3.
//
// The campaign engine itself lives in src/pipeline: a streaming
// pipeline::ValidationPipeline assembled from typed stages (model build ->
// tour -> concretize -> simulate -> compare), instrumented through
// obs::EventSink, with per-stage budgets and cooperative cancellation.
// This header re-exports the pipeline contracts under the historical
// core:: names and keeps the two entry points as thin assemblies:
//
//   * run_campaign — the Figure-1 DLX campaign;
//   * evaluate_mutant_coverage — the Theorem-3 mutant-coverage evaluator.
//
// Every randomized phase draws from its own RNG stream derived from
// (options.seed, stream tag) — see runtime/rng.hpp — so results are
// bit-identical at any thread count, including 1.
#pragma once

#include <span>

#include "fsm/mealy.hpp"
#include "model/explicit_model.hpp"
#include "pipeline/contracts.hpp"

namespace simcov::core {

// Campaign contracts (moved to pipeline/contracts.hpp; re-exported so
// existing core:: callers compile unchanged).
using pipeline::BackendChoice;
using pipeline::BugExposure;
using pipeline::CampaignOptions;
using pipeline::CampaignResult;
using pipeline::CancellationToken;
using pipeline::method_name;
// Generator-spec vocabulary (model/generator_spec.hpp) — selects the
// sequence-generation strategy carried by CampaignOptions::generator.
using model::GeneratorKind;
using model::GeneratorSpec;
using model::generator_kind_name;
using model::parse_generator_kind;
using pipeline::MutantCoverageOptions;
using pipeline::MutantCoverageResult;
using pipeline::PhaseTimings;
using pipeline::RunMetrics;
using pipeline::StageBudget;
using pipeline::StageBudgets;
using pipeline::StageReport;
using pipeline::TestMethod;

/// Runs a full campaign against each bug in `bugs` (plus a clean run).
/// Thin assembly of pipeline::ValidationPipeline.
CampaignResult run_campaign(const CampaignOptions& options,
                            std::span<const dlx::PipelineBug> bugs);

/// Samples output+transfer mutants of the model's machine and measures how
/// many the chosen test method exposes (Theorem 3). Throws
/// std::runtime_error when the method cannot generate a test set.
MutantCoverageResult evaluate_mutant_coverage(
    const model::ExplicitModel& model, const MutantCoverageOptions& options);

}  // namespace simcov::core
