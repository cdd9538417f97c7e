#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <numeric>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values, std::size_t min_beyond) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= min_beyond) {
    t.value = values.back();
    t.percentile = 100.0;
    return t;
  }
  const std::size_t rank = n - min_beyond - 1;  // 0-based
  t.value = values[rank];
  t.beyond = min_beyond;
  t.percentile = 100.0 * static_cast<double>(rank + 1) /
                 static_cast<double>(n);
  return t;
}

double median_throughput(const std::vector<double>& walls,
                         std::size_t rounds) {
  const std::size_t n = walls.size();
  rounds = std::min(rounds, n);
  std::vector<double> rates;
  for (std::size_t r = 0; r < rounds; ++r) {
    double seconds = 0.0;
    const std::size_t begin = r * n / rounds;
    const std::size_t end = (r + 1) * n / rounds;
    for (std::size_t i = begin; i < end; ++i) seconds += walls[i];
    if (seconds > 0.0) {
      rates.push_back(static_cast<double>(end - begin) / seconds);
    }
  }
  return median(rates);
}

double union_length(std::vector<Interval> intervals, double lo, double hi) {
  for (auto& iv : intervals) {
    iv.start = std::max(iv.start, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::erase_if(intervals,
                [](const Interval& iv) { return iv.end <= iv.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& iv : intervals) {
    if (open && iv.start <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = iv.start;
    run_end = iv.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

double self_time(const Interval& span, const std::vector<Interval>& children) {
  return (span.end - span.start) -
         union_length(children, span.start, span.end);
}

double busy_share(double item_seconds, std::size_t lanes,
                  double span_seconds) {
  const double capacity = static_cast<double>(lanes) * span_seconds;
  return capacity > 0.0 ? item_seconds / capacity : 0.0;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> seeded_permutation(std::size_t n,
                                            std::uint64_t seed) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
