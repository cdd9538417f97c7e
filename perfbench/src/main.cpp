// simcov_perfbench: runs one workload as a closed loop (one job in flight)
// for a fixed wall time and prints its metrics.
//
//   simcov_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>] [--trace-out <file>]
//
// --trace 0 times untraced jobs and reports the end-to-end metrics.
// --trace 1 alternates traced and untraced jobs, reports the per-layer
// metrics and writes every span to --trace-out. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every job passed its output checks.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::LayerValues;
using perfbench::Tracer;
using perfbench::Workload;

/// Setups per run; setup_s is their median. Each setup builds the
/// workload's inputs and runs one checked warm-up job.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
      } else if (key == "--commit") {
        a.commit = val;
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs one untraced job. Returns "" or what it threw.
std::string guarded_job(Workload& w) {
  try {
    w.run_job();
  } catch (const std::exception& e) {
    return std::string("job threw: ") + e.what();
  }
  return {};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the metric table and the final JSON line.
void report(const std::vector<Metric>& metrics, std::size_t attempted,
            std::size_t failed) {
  std::printf("\n");
  for (const auto& m : metrics) {
    std::printf("  %-34s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void note_failure(const std::string& what, std::size_t& failed) {
  ++failed;
  std::fprintf(stderr, "job failed: %s\n", what.c_str());
}

int run_untraced(const Args& a, const perfbench::WorkloadInputs& in,
                 Clock::time_point process_start) {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const Clock::time_point t0 = rep == 0 ? process_start : Clock::now();
    w = perfbench::make_workload(a.workload, in);
    std::string err = guarded_job(*w);
    if (err.empty()) err = w->check();
    setups.push_back(perfbench::seconds_since(t0));
    ++attempted;
    if (!err.empty()) note_failure(err, failed);
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  do {
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    std::string err = guarded_job(*w);
    walls.push_back(perfbench::seconds_since(t0));
    cpus.push_back(cpu_seconds() - cpu0);
    if (err.empty()) err = w->check();
    ++attempted;
    if (!err.empty()) note_failure(err, failed);
  } while (Clock::now() < deadline);

  const perfbench::Tail tail = perfbench::tail(walls);
  std::printf("job_s.tail is p%.1f of %zu jobs, %zu beyond it%s\n",
              tail.percentile, tail.samples, tail.beyond,
              tail.beyond < perfbench::kTailBeyond
                  ? " (fewer than 11 jobs: the maximum)"
                  : "");
  std::printf("failed_share %.6f (%zu of %zu jobs)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted);
  report({{"setup_s", perfbench::median(setups), "s"},
          {"job_s.p50", perfbench::median(walls), "s"},
          {"job_s.tail", tail.value, "s"},
          {"jobs_per_s", perfbench::median_throughput(walls), "1/s"},
          {"cpu_s.per_job", perfbench::median(cpus), "s"},
          {"peak_rss_mb", perfbench::peak_rss_mb(), "MB"},
          {"ok_share",
           1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
           "ratio"}},
         attempted, failed);
  return failed == 0 ? 0 : 1;
}

/// Duration of job `job`'s root span.
double job_wall(const std::vector<perfbench::Span>& spans, std::size_t job) {
  for (const auto& s : spans) {
    if (s.parent == Tracer::kNoParent && s.job == job) return s.end - s.start;
  }
  return 0.0;
}

int run_traced(const Args& a, const perfbench::WorkloadInputs& in) {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Tracer tracer;
  auto w = perfbench::make_workload(a.workload, in);
  std::vector<LayerValues> traced;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::size_t job = 0;
  const auto traced_job = [&] {
    LayerValues v;
    std::string err;
    try {
      err = w->run_traced(tracer, job, v);
    } catch (const std::exception& e) {
      err = std::string("traced job threw: ") + e.what();
    }
    traced.push_back(std::move(v));
    traced_walls.push_back(job_wall(tracer.spans(), job));
    ++job;
    ++attempted;
    if (!err.empty()) note_failure(err, failed);
  };

  // The first traced job doubles as the warm-up; it is also the only one
  // in which sampling can still raise the process's peak RSS.
  traced_job();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  do {
    const Clock::time_point t0 = Clock::now();
    std::string err = guarded_job(*w);
    untraced_walls.push_back(perfbench::seconds_since(t0));
    if (err.empty()) err = w->check();
    ++attempted;
    if (!err.empty()) note_failure(err, failed);
    traced_job();
  } while (Clock::now() < deadline);

  // Medians over the warm traced jobs (all but the first).
  LayerValues out;
  for (const auto& def : perfbench::per_layer_metrics()) {
    std::vector<double> xs;
    for (std::size_t j = 1; j < traced.size(); ++j) {
      const auto it = traced[j].find(def.name);
      xs.push_back(it == traced[j].end() ? 0.0 : it->second);
    }
    out[def.name] = perfbench::median(xs);
  }
  out["errmodel.sample_rss_mb"] = traced.front()["errmodel.sample_rss_mb"];
  std::vector<double> accounted;
  for (std::size_t j = 1; j < traced.size(); ++j) {
    accounted.push_back(traced_walls[j] - traced[j]["unaccounted_s"]);
  }
  const double untraced_p50 = perfbench::median(untraced_walls);
  const std::vector<double> warm_walls(traced_walls.begin() + 1,
                                       traced_walls.end());
  out["trace.overhead_s"] = perfbench::median(warm_walls) - untraced_p50;
  out["pipeline.glue_s"] = untraced_p50 - perfbench::median(accounted);

  // Self times of the last traced job, by span name.
  const auto spans = tracer.spans();
  std::size_t last_root = 0;
  for (const auto& s : spans) {
    if (s.parent == Tracer::kNoParent) last_root = s.id;
  }
  const perfbench::JobLedger last = perfbench::ledger(spans, last_root);
  std::printf("self times of traced job %zu (%.6f s wall):\n", job - 1,
              last.wall);
  std::printf("  %-26s %12s %12s %12s %8s\n", "span", "total_s", "self_s",
              "max_s", "count");
  for (const auto& [name, n] : last.by_name) {
    std::printf("  %-26s %12.6f %12.6f %12.6f %8zu\n", name.c_str(), n.total,
                n.self, n.max, n.count);
  }
  std::printf("  %-26s %12s %12.6f\n", "(unaccounted)", "", last.unaccounted);
  std::printf("traced jobs %zu, untraced jobs %zu\n", traced.size(),
              untraced_walls.size());
  if (!a.trace_out.empty() && !tracer.write_json(a.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", a.trace_out.c_str());
    return 2;
  }

  std::vector<Metric> metrics;
  for (const auto& def : perfbench::per_layer_metrics()) {
    metrics.push_back({def.name, out[def.name], def.unit});
  }
  report(metrics, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == a.workload;
  }
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  perfbench::WorkloadInputs in;
  in.seed = a.seed;
  in.lanes = nproc();
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("nproc %zu  lanes %zu  compiler %s  build %s  commit %s\n",
              nproc(), in.lanes, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              a.commit.c_str());
  std::fflush(stdout);
  try {
    return a.trace ? run_traced(a, in) : run_untraced(a, in, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
