// The benchmark's four workloads. One job is one call of the workload's
// simcov entry point, with the model rebuilt from options as a user's run
// does:
//
//   dlx_campaign       core::run_campaign, explicit backend, telemetry and
//                      a MetricsRegistry attached (Figure-1 flow)
//   thm3_mutants       core::evaluate_mutant_coverage, 400 packed mutants
//                      (Theorem 3)
//   symbolic_reach     sym::SymbolicFsm build + reachable_states() + stats()
//                      on the full-ISA reg_addr_bits=4 model
//   symbolic_campaign  core::run_campaign on the symbolic backend, no
//                      telemetry, no registry
//
// A traced job drives the same work through the public entry points of each
// layer (pipeline stages, errmodel, sym) with a span around every call, and
// must reproduce the untraced job's outputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dlx/pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorkloadInputs {
  std::uint64_t seed = 1;
  std::size_t lanes = 1;  ///< library-internal parallelism (nproc)
};

/// A per-layer metric: name and unit. Every workload reports every one;
/// a layer the workload bypasses reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Per-layer values of one traced job, by metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Runs one untraced job.
  virtual void run_job() = 0;
  /// Checks the last untraced job's outputs; call after its timer stops.
  /// The first job checked (traced or not) becomes the reference later
  /// jobs must reproduce. Returns an empty string on success, else what
  /// mismatched.
  virtual std::string check() = 0;
  /// Runs one traced job under root span `job`, fills `values` (all but
  /// the metrics only the runner can compute) and checks the outputs like
  /// check().
  virtual std::string run_traced(Tracer& tracer, std::size_t job,
                                 LayerValues& values) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the workload's inputs from `inputs`; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const WorkloadInputs& inputs);

/// The 16 injected DLX control bugs in an order drawn from `seed` — the
/// campaigns' seeded input (the order of the per-bug report entries).
[[nodiscard]] std::vector<simcov::dlx::PipelineBug> campaign_bugs(
    std::uint64_t seed);

}  // namespace perfbench
