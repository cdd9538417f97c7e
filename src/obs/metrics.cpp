#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace simcov::obs {

namespace {

std::uint64_t seconds_to_ns(double seconds) {
  if (!(seconds > 0.0)) return 0;
  const double ns = seconds * 1e9;
  if (ns >= static_cast<double>(std::numeric_limits<std::uint64_t>::max())) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(ns);
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t quantile_upper_bound(
    const std::array<std::uint64_t, kHistogramBuckets>& buckets,
    std::uint64_t count, double q) {
  if (count == 0) return 0;
  // Rank of the q-quantile, 1-based: the smallest bucket whose cumulative
  // count reaches it. ceil(q * count) clamped to [1, count].
  const auto rank = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(
             count, static_cast<std::uint64_t>(
                        std::ceil(q * static_cast<double>(count)))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return histogram_bucket_upper_bound(i);
  }
  return histogram_bucket_upper_bound(kHistogramBuckets - 1);
}

}  // namespace

std::size_t histogram_bucket_index(std::uint64_t value) {
  if (value == 0) return 0;
  return std::min<std::size_t>(std::bit_width(value), kHistogramBuckets - 1);
}

std::uint64_t histogram_bucket_upper_bound(std::size_t index) {
  if (index == 0) return 0;
  if (index >= kHistogramBuckets - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return (std::uint64_t{1} << index) - 1;
}

std::uint64_t span_ns(const MetricsSummary& summary, Stage stage) {
  for (const auto& h : summary.histograms) {
    if (h.stage == stage && h.name == "span_ns") return h.value.sum;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// EventSink mapping
// ---------------------------------------------------------------------------

void MetricsRegistry::span(Stage stage, double seconds) {
  observe(stage, "span_ns", seconds_to_ns(seconds));
}

void MetricsRegistry::counter(Stage stage, std::string_view name,
                              std::uint64_t value) {
  add_counter(stage, name, value);
}

void MetricsRegistry::gauge(Stage stage, std::string_view name,
                            std::uint64_t value) {
  max_gauge(stage, name, value);
}

void MetricsRegistry::item(Stage stage, std::string_view kind,
                           std::uint64_t id, std::uint64_t value) {
  (void)id;
  observe(stage, kind, value);
}

void MetricsRegistry::latency(Stage stage, std::string_view kind,
                              std::uint64_t id, double seconds) {
  (void)id;
  // One histogram per latency kind; the name carries the unit so the
  // Prometheus export and report JSON stay self-describing.
  std::string name;
  name.reserve(kind.size() + 11);
  name.append(kind);
  name.append(".latency_ns");
  observe(stage, name, seconds_to_ns(seconds));
}

// ---------------------------------------------------------------------------
// Direct API
// ---------------------------------------------------------------------------

MetricsRegistry::Shard& MetricsRegistry::shard_for(Stage stage,
                                                   std::string_view name) {
  const std::size_t h =
      std::hash<std::string_view>{}(name) * 31 + static_cast<std::size_t>(stage);
  return shards_[h % kShardCount];
}

template <typename Cell>
Cell& MetricsRegistry::cell(Shard& shard, CellMap<Cell> Shard::*map,
                            Stage stage, std::string_view name) {
  std::lock_guard lock(shard.mutex);
  CellMap<Cell>& cells = shard.*map;
  const auto it = cells.find(std::pair(stage, name));
  if (it != cells.end()) return *it->second;
  return *cells
              .emplace(std::pair(stage, std::string(name)),
                       std::make_unique<Cell>())
              .first->second;
}

void MetricsRegistry::add_counter(Stage stage, std::string_view name,
                                  std::uint64_t value) {
  Shard& shard = shard_for(stage, name);
  CounterCell& c = cell(shard, &Shard::counters, stage, name);
  c.value.fetch_add(value, std::memory_order_relaxed);
}

void MetricsRegistry::max_gauge(Stage stage, std::string_view name,
                                std::uint64_t value) {
  Shard& shard = shard_for(stage, name);
  GaugeCell& g = cell(shard, &Shard::gauges, stage, name);
  atomic_max(g.value, value);
}

void MetricsRegistry::observe(Stage stage, std::string_view name,
                              std::uint64_t value) {
  Shard& shard = shard_for(stage, name);
  HistogramCell& h = cell(shard, &Shard::histograms, stage, name);
  h.buckets[histogram_bucket_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  atomic_max(h.max, value);
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

MetricsSummary MetricsRegistry::summary() const {
  MetricsSummary out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, c] : shard.counters) {
      out.counters.push_back(
          {key.first, key.second, c->value.load(std::memory_order_relaxed)});
    }
    for (const auto& [key, g] : shard.gauges) {
      out.gauges.push_back(
          {key.first, key.second, g->value.load(std::memory_order_relaxed)});
    }
    for (const auto& [key, h] : shard.histograms) {
      HistogramSummary s;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        s.buckets[i] = h->buckets[i].load(std::memory_order_relaxed);
      }
      s.count = h->count.load(std::memory_order_relaxed);
      s.sum = h->sum.load(std::memory_order_relaxed);
      s.max = h->max.load(std::memory_order_relaxed);
      s.p50 = quantile_upper_bound(s.buckets, s.count, 0.50);
      s.p90 = quantile_upper_bound(s.buckets, s.count, 0.90);
      s.p99 = quantile_upper_bound(s.buckets, s.count, 0.99);
      out.histograms.push_back({key.first, key.second, std::move(s)});
    }
  }
  const auto by_key = [](const auto& a, const auto& b) {
    if (a.stage != b.stage) return a.stage < b.stage;
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_key);
  std::sort(out.gauges.begin(), out.gauges.end(), by_key);
  std::sort(out.histograms.begin(), out.histograms.end(), by_key);
  return out;
}

}  // namespace simcov::obs
