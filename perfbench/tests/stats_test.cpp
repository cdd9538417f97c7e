// Tests of the benchmark's own statistics: tail-percentile selection, span
// self time over overlapping children, lane busy share, and seed handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Tail, LeavesTenSamplesBeyondThePercentile) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  std::reverse(xs.begin(), xs.end());  // input order must not matter
  const Tail t = tail(xs);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  const auto above = std::count_if(xs.begin(), xs.end(),
                                   [&](double x) { return x > t.value; });
  EXPECT_EQ(above, 10);
}

TEST(Tail, ElevenSamplesGiveTheMinimum) {
  std::vector<double> xs;
  for (int i = 0; i < 11; ++i) xs.push_back(10.0 + i);
  const Tail t = tail(xs);
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(Tail, TooFewSamplesReportTheMaximumWithNothingBeyond) {
  const Tail t = tail({3.0, 1.0, 2.0});
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(t.samples, 3u);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(MedianThroughput, MedianOverRoundsOfJobs) {
  // Ten jobs in five rounds of two: rates 1, 1, 2, 0.5, 1 jobs per second.
  const std::vector<double> walls = {1, 1, 1, 1, 0.5, 0.5, 2, 2, 1, 1};
  EXPECT_DOUBLE_EQ(median_throughput(walls), 1.0);
  // A burst of slow jobs in one round leaves the median alone.
  const std::vector<double> burst = {1, 1, 1, 1, 9, 9, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(median_throughput(burst), 1.0);
  // Fewer jobs than rounds: one job per round.
  EXPECT_DOUBLE_EQ(median_throughput({2.0, 4.0, 1.0}), 0.5);
  EXPECT_EQ(median_throughput({}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  // Two lanes overlap on [2, 4]; a third child sticks out of the span.
  const Interval span{0.0, 10.0};
  const std::vector<Interval> children = {
      {1.0, 4.0}, {2.0, 5.0}, {8.0, 12.0}};
  EXPECT_DOUBLE_EQ(union_length(children, span.start, span.end), 6.0);
  EXPECT_DOUBLE_EQ(self_time(span, children), 4.0);
  // Nested and identical children count once.
  EXPECT_DOUBLE_EQ(self_time(span, {{1.0, 9.0}, {2.0, 3.0}, {1.0, 9.0}}),
                   2.0);
  EXPECT_DOUBLE_EQ(self_time(span, {}), 10.0);
}

TEST(Ledger, UnaccountedTimeIsTheRootMinusItsChildren) {
  std::vector<Span> spans = {
      {"job", 0, Tracer::kNoParent, 7, 0.0, 10.0},
      {"stage", 1, 0, 7, 1.0, 6.0},
      {"item", 2, 1, 7, 1.0, 4.0},
      {"item", 3, 1, 7, 2.0, 5.0},
      {"other", 4, 0, 7, 5.0, 8.0},
      {"job", 5, Tracer::kNoParent, 8, 10.0, 20.0},
  };
  const JobLedger l = ledger(spans, 0);
  EXPECT_DOUBLE_EQ(l.wall, 10.0);
  EXPECT_DOUBLE_EQ(l.unaccounted, 3.0);  // [0,1] and [8,10]
  EXPECT_DOUBLE_EQ(l.by_name.at("stage").total, 5.0);
  EXPECT_DOUBLE_EQ(l.by_name.at("stage").self, 1.0);  // [5,6]
  EXPECT_DOUBLE_EQ(l.by_name.at("item").total, 6.0);
  EXPECT_DOUBLE_EQ(l.by_name.at("item").max, 3.0);
  EXPECT_EQ(l.by_name.at("item").count, 2u);
  EXPECT_EQ(l.by_name.count("job"), 0u);
}

TEST(Tracer, RecordsParentsAndJobsFromConcurrentLanes) {
  Tracer tracer;
  const std::size_t root = tracer.begin_job(3);
  const std::size_t stage = tracer.begin("stage", root);
  std::vector<std::thread> lanes;
  for (int i = 0; i < 4; ++i) {
    lanes.emplace_back([&] { Scope s(tracer, "item", stage); });
  }
  for (auto& t : lanes) t.join();
  tracer.end(stage);
  tracer.end(root);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 6u);
  for (const auto& s : spans) {
    EXPECT_EQ(s.job, 3u);
    EXPECT_LE(s.start, s.end);
    if (s.name == "item") {
      EXPECT_EQ(s.parent, stage);
    }
  }
  EXPECT_EQ(ledger(spans, root).by_name.at("item").count, 4u);
}

TEST(BusyShare, ItemSecondsOverLaneCapacity) {
  EXPECT_DOUBLE_EQ(busy_share(6.0, 4, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(busy_share(2.0, 1, 2.0), 1.0);
  EXPECT_EQ(busy_share(1.0, 4, 0.0), 0.0);
}

TEST(Seed, SameSeedSameInputsOtherSeedAnotherValidPermutation) {
  EXPECT_EQ(seeded_permutation(16, 42), seeded_permutation(16, 42));
  EXPECT_EQ(campaign_bugs(7), campaign_bugs(7));
  const auto a = campaign_bugs(1);
  const auto b = campaign_bugs(2);
  EXPECT_NE(a, b);
  const std::set<simcov::dlx::PipelineBug> sa(a.begin(), a.end());
  const std::set<simcov::dlx::PipelineBug> sb(b.begin(), b.end());
  EXPECT_EQ(sa.size(), 16u);
  EXPECT_EQ(sa, sb);
}

TEST(Seed, OtherSeedYieldsAValidMutantRun) {
  // The seed reaches the mutant sampler; another seed draws other
  // mutants, and the run must still pass the output checks.
  for (const std::uint64_t seed : {1u, 2u}) {
    auto w = make_workload("thm3_mutants", WorkloadInputs{seed, 2});
    ASSERT_NE(w, nullptr);
    w->run_job();
    EXPECT_EQ(w->check(), "");
  }
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_EQ(make_workload("nope", WorkloadInputs{}), nullptr);
  for (const auto& name : workload_names()) {
    EXPECT_FALSE(name.empty());
  }
}

}  // namespace
}  // namespace perfbench
