// Tests of the benchmark itself: the tail-percentile rule, failure
// accounting, and the reuse-cache behaviour the service-mix metrics rely on.
// Build and run: python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "workload.h"

namespace ppj::perfbench {
namespace {

TEST(PercentileRuleTest, ReportsTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(TailPercentile(100), 90);
  // One sample fewer leaves nine beyond p90: the rule falls back to p75.
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(TailPercentile(99), 75);
  EXPECT_EQ(TailPercentile(20000), 90);
  EXPECT_EQ(TailPercentile(5), 50);
  for (std::size_t n : {10u, 39u, 40u, 57u, 100u, 1234u, 40000u}) {
    const double pct = TailPercentile(n);
    if (pct > 50) {
      EXPECT_GE(SamplesBeyond(n, pct), kMinBeyond) << n;
    }
  }
}

TEST(PercentileRuleTest, NearestRankAndMedian) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 90), 90);
  EXPECT_EQ(Percentile(values, 99), 99);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({}), 0);
}

/// A small Algorithm 5 contract: the same client, at a size a test affords.
WorkloadSpec SmallSerialSpec() {
  WorkloadSpec spec = *FindWorkload("alg5-serial");
  spec.shape.size_a = 8;
  spec.shape.size_b = 16;
  spec.shape.n_max = 4;
  spec.shape.result_size = 9;
  spec.memory_tuples = 8;
  return spec;
}

TEST(FailureAccountingTest, DeliveriesAreCheckedAgainstThePlaintextJoin) {
  Result<std::shared_ptr<const Dataset>> data =
      MakeDataset(SmallSerialSpec().shape);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ((*data)->expected.size(), 9u);
  const relation::Relation& a = *(*data)->tables.a;
  const relation::Relation& b = *(*data)->tables.b;
  const relation::Schema joined =
      relation::Schema::Concat(a.schema(), b.schema());
  std::vector<relation::Tuple> rows;
  for (const relation::Tuple& ta : a.tuples()) {
    for (const relation::Tuple& tb : b.tuples()) {
      if ((*data)->tables.predicate->Match(ta, tb)) {
        rows.push_back(relation::Tuple::Concat(&joined, ta, tb));
      }
    }
  }
  EXPECT_TRUE(MatchesExpected(**data, rows));
  rows.pop_back();
  EXPECT_FALSE(MatchesExpected(**data, rows));
}

TEST(FailureAccountingTest, CorruptedInputCountsAsFailedNotDropped) {
  const WorkloadSpec spec = SmallSerialSpec();
  Workload workload(spec, /*seed=*/1, /*traced=*/false);
  std::vector<OpRecord> warmup;
  ASSERT_TRUE(workload.SetUp(&warmup).ok());
  RunOutcome before;
  Count(warmup, &before);
  EXPECT_EQ(before.failed, 0u);

  // Flip a bit in the first slot of every host region, the sealed inputs
  // included: the next join trips the tamper response, and the dead
  // contract refuses the ones after it.
  sim::HostStore& host = workload.service().host();
  for (sim::RegionId r = 0; r < host.region_count(); ++r) {
    if (host.RegionSlots(r) > 0) {
      ASSERT_TRUE(host.CorruptSlot(r, 0, 3).ok());
    }
  }
  std::vector<OpRecord> measured;
  workload.Run(4, &measured);
  RunOutcome outcome;
  Count(measured, &outcome);
  EXPECT_EQ(measured.size(), 4u);
  EXPECT_EQ(outcome.attempted, 4u);
  EXPECT_EQ(outcome.failed, 4u);
}

TEST(ServiceMixTest, RepeatsAreAllReuseHitsAtTheDefaultSeed) {
  const WorkloadSpec& spec = *FindWorkload("service-mix");
  Workload workload(spec, /*seed=*/1, /*traced=*/false);
  std::vector<OpRecord> records;
  ASSERT_TRUE(workload.SetUp(&records).ok());
  workload.Run(4000, &records);
  std::size_t repeats = 0, hits = 0, resubmits = 0, failed = 0;
  for (const OpRecord& r : records) {
    if (!r.ok) ++failed;
    if (r.kind == OpKind::kResubmit) ++resubmits;
    if (r.kind != OpKind::kRepeat) continue;
    ++repeats;
    if (r.reused) ++hits;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(repeats, 800u);
  EXPECT_GT(resubmits, 40u);
  EXPECT_EQ(hits, repeats);
}

}  // namespace
}  // namespace ppj::perfbench
