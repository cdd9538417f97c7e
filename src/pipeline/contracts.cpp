#include "pipeline/contracts.hpp"

#include <cassert>
#include <cmath>

namespace simcov::pipeline {

const char* method_name(TestMethod method) {
  switch (method) {
    case TestMethod::kTransitionTourSet: return "transition-tour";
    case TestMethod::kStateTour: return "state-tour";
    case TestMethod::kRandomWalk: return "random-walk";
    case TestMethod::kWMethod: return "w-method";
  }
  return "?";
}

namespace {

double to_seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

bool any_status(const std::vector<StageReport>& reports,
                obs::StageStatus status) {
  for (const auto& r : reports) {
    if (r.status == status) return true;
  }
  return false;
}

}  // namespace

double span_seconds(const obs::MetricsSummary& metrics, obs::Stage stage) {
  return to_seconds(obs::span_ns(metrics, stage));
}

PhaseTimings timings_from_spans(const obs::MetricsSummary& metrics) {
  const auto ns = [&](obs::Stage stage) {
    return obs::span_ns(metrics, stage);
  };
  PhaseTimings t;
  t.model_build_seconds = to_seconds(ns(obs::Stage::kModelBuild));
  t.symbolic_seconds = to_seconds(ns(obs::Stage::kSymbolic));
  t.tour_seconds = to_seconds(ns(obs::Stage::kTour));
  t.concretize_seconds = to_seconds(ns(obs::Stage::kConcretize));
  t.simulate_seconds = to_seconds(ns(obs::Stage::kSimulate) +
                                  ns(obs::Stage::kCompare) +
                                  ns(obs::Stage::kMutantReplay));
  std::uint64_t total_ns = 0;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    total_ns += ns(static_cast<obs::Stage>(s));
  }
  t.total_seconds = to_seconds(total_ns);
  // Every stage must fold into one of the five phase fields; a stage the
  // mapping dropped would make the total exceed the phase sum. Tolerance
  // only covers rounding the per-phase nanosecond sums to seconds.
  assert(std::abs(t.total_seconds - t.phase_sum()) <=
         1e-9 * std::fmax(1.0, std::fabs(t.total_seconds)));
  return t;
}

std::size_t CampaignResult::bugs_exposed() const {
  std::size_t n = 0;
  for (const auto& e : exposures) {
    if (e.exposed) ++n;
  }
  return n;
}

std::uint64_t CampaignResult::total_impl_cycles() const {
  std::uint64_t n = 0;
  for (const auto& r : clean_runs) n += r.impl_cycles;
  for (const auto& e : exposures) n += e.impl_cycles;
  return n;
}

bool CampaignResult::budget_exhausted() const {
  return any_status(stage_reports, obs::StageStatus::kBudgetExhausted);
}

bool CampaignResult::cancelled() const {
  return any_status(stage_reports, obs::StageStatus::kCancelled);
}

bool MutantCoverageResult::cancelled() const {
  return any_status(stage_reports, obs::StageStatus::kCancelled);
}

}  // namespace simcov::pipeline
