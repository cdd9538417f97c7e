// Statistics the benchmark reports: medians, the tail percentile with a
// fixed number of samples beyond it, interval unions for span self time,
// lane utilisation, and the seeded permutation that turns --seed into
// workload inputs. Pure functions, so tests/stats_test.cpp pins them; the
// two process measurements at the end are the only exceptions.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// The highest sample percentile that still has `min_beyond` samples above
/// it. With n sorted samples that is the (n - min_beyond)-th smallest, and
/// `percentile` is the share of samples at or below it, times 100. With
/// n <= min_beyond no percentile qualifies: the maximum is reported with
/// percentile 100 and `beyond` 0, so the shortfall is visible in the output.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;   ///< samples strictly after `value` in rank order
  std::size_t samples = 0;
};
inline constexpr std::size_t kTailBeyond = 10;
[[nodiscard]] Tail tail(std::vector<double> values,
                        std::size_t min_beyond = kTailBeyond);

/// Jobs per second of timed wall time, robust to host slowdowns shorter
/// than half a run: the jobs are split into `rounds` consecutive groups of
/// nearly equal count (one job per group when there are fewer jobs), and the
/// median over groups of (jobs / their summed wall seconds) is returned.
[[nodiscard]] double median_throughput(const std::vector<double>& walls,
                                       std::size_t rounds = 5);

/// A closed time interval in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `intervals` clipped to [lo, hi]. Overlapping
/// intervals (children running on parallel lanes) count once.
[[nodiscard]] double union_length(std::vector<Interval> intervals, double lo,
                                  double hi);

/// Self time of a span: its duration minus the part of it that the union
/// of its children covers.
[[nodiscard]] double self_time(const Interval& span,
                               const std::vector<Interval>& children);

/// Share of the lanes' capacity that items kept busy:
/// sum(item seconds) / (lanes * span seconds). 0 when there was no span.
[[nodiscard]] double busy_share(double item_seconds, std::size_t lanes,
                                double span_seconds);

/// splitmix64: the benchmark's only source of randomness, so inputs depend
/// on the seed and nothing implementation-defined.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// A permutation of 0..n-1 drawn by Fisher-Yates from splitmix64(seed).
[[nodiscard]] std::vector<std::size_t> seeded_permutation(std::size_t n,
                                                          std::uint64_t seed);

/// Wall seconds since `t0`.
[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0);

/// The process's peak resident set (`ru_maxrss`), MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
