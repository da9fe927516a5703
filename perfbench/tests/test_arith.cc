/**
 * @file
 * Tests of the benchmark's own arithmetic: nearest-rank percentiles
 * with the ten-beyond rule, each op's median over the passes, self
 * time under overlapping child spans,
 * the geometric mean of sim_speedup_vs_dense, and the serving
 * accounting identity.
 */
#include <gtest/gtest.h>

#include "arith.h"
#include "trace.h"

using namespace perfbench;

TEST(NearestRank, PicksAnObservedSampleAtTheCeilingRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Percentile p50 = nearestRank(v, 50.0);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.count, 100u);
    EXPECT_EQ(p50.beyond, 50u);
    const Percentile p95 = nearestRank(v, 95.0);
    EXPECT_EQ(p95.value, 95.0);
    EXPECT_EQ(p95.beyond, 5u);
    EXPECT_FALSE(p95.resolved()); // 5 samples beyond: fewer than ten
    // ceil(0.95 * 7) = 7: the maximum.
    EXPECT_EQ(nearestRank({3, 1, 2, 7, 5, 4, 6}, 95.0).value, 7.0);
}

TEST(NearestRank, TenBeyondRuleNeedsTwoHundredSamplesAtP95)
{
    std::vector<double> v(199);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i);
    EXPECT_EQ(nearestRank(v, 95.0).beyond, 9u); // rank ceil(189.05)=190
    EXPECT_FALSE(nearestRank(v, 95.0).resolved());
    v.push_back(199.0);
    const Percentile p = nearestRank(v, 95.0);
    EXPECT_EQ(p.count, 200u);
    EXPECT_EQ(p.beyond, 10u);
    EXPECT_TRUE(p.resolved());
    EXPECT_EQ(p.value, 189.0);
}

TEST(NearestRank, EmptyInputHasNoSamples)
{
    const Percentile p = nearestRank({}, 50.0);
    EXPECT_EQ(p.count, 0u);
    EXPECT_FALSE(p.resolved());
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(MedianOps, TakesEachOpsMedianInIndexOrder)
{
    const std::vector<OpTime> ops = medianOps({{1, 9.0, 3.0, 100},
                                               {0, 4.0, 8.0, 1},
                                               {1, 7.0, 2.0, 100},
                                               {0, 6.0, 9.0, 1},
                                               {1, 20.0, 4.0, 100}});
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].index, 0u);
    EXPECT_EQ(ops[0].wall_ms, 5.0); // even count: mean of the middle two
    EXPECT_EQ(ops[0].cpu_ms, 8.5);
    EXPECT_EQ(ops[1].index, 1u);
    EXPECT_EQ(ops[1].wall_ms, 9.0); // the 20 ms outlier does not move it
    EXPECT_EQ(ops[1].cpu_ms, 3.0);  // each clock's median on its own
    EXPECT_EQ(ops[1].completed, 100);
    EXPECT_TRUE(medianOps({}).empty());
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // A parent [0, 10) with children from parallel calls that overlap
    // each other: [1, 4), [2, 6) and a nested-in-both [3, 5), plus a
    // disjoint [8, 9). Their union is [1, 6) + [8, 9) = 6 ms.
    std::vector<Span> spans = {
        {"op", 0.0, 10.0, -1, 0},     {"gemm.a", 1.0, 4.0, 0, 0},
        {"gemm.b", 2.0, 6.0, 0, 0},   {"gemm.c", 3.0, 5.0, 0, 0},
        {"sparse.d", 8.0, 9.0, 0, 0},
    };
    const std::vector<double> self = selfTimesMs(spans);
    EXPECT_DOUBLE_EQ(self[0], 4.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0);
    EXPECT_DOUBLE_EQ(childCoverage(spans, 0), 0.6);
}

TEST(SelfTime, ChildrenAreClippedToTheirParent)
{
    std::vector<Span> spans = {
        {"op", 0.0, 4.0, -1, 0},
        {"core.plan", 3.0, 7.0, 0, 0}, // runs past its parent's end
        {"core.execute", 3.5, 3.75, 1, 0},
    };
    const std::vector<double> self = selfTimesMs(spans);
    EXPECT_DOUBLE_EQ(self[0], 3.0);
    EXPECT_DOUBLE_EQ(self[1], 3.75);
    EXPECT_DOUBLE_EQ(self[2], 0.25);
}

TEST(SelfTime, UnionLengthMergesTouchingAndNestedIntervals)
{
    EXPECT_DOUBLE_EQ(unionLength({{0, 1}, {1, 2}, {0.5, 0.75}, {5, 6}}),
                     3.0);
    EXPECT_DOUBLE_EQ(unionLength({}), 0.0);
    EXPECT_DOUBLE_EQ(unionLength({{2, 2}, {3, 1}}), 0.0);
}

TEST(Tracer, RecordsNestingAndOpIds)
{
    Tracer tracer(true);
    tracer.setOp(7);
    {
        Tracer::Scope op(tracer, "op");
        Tracer::Scope inner(tracer, "gemm.spgemm");
    }
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[0].parent, -1);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
    EXPECT_EQ(tracer.spans()[1].op, 7);
    EXPECT_LE(tracer.spans()[1].end_ms, tracer.spans()[0].end_ms);
    EXPECT_EQ(moduleOf("gemm.spgemm"), "gemm");

    Tracer off(false);
    {
        Tracer::Scope op(off, "op");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Geomean, OfSpeedupRatios)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_NEAR(geomean({1.5, 3.0, 6.0}), 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(ServeAccounting, HoldsOnAConsistentRun)
{
    dstc::ServingStats s;
    s.offered = 100;
    s.rejected = 10;
    s.admitted = 90;
    s.completed = 80;
    s.shed = 4;
    s.dropped = 3;
    s.faults.lost = 3;
    std::string why;
    EXPECT_TRUE(serveAccountingHolds(s, &why)) << why;
}

TEST(ServeAccounting, FiresOnAHandBuiltBadStats)
{
    dstc::ServingStats s;
    s.offered = 100;
    s.rejected = 10;
    s.admitted = 90;
    s.completed = 85; // one more than can have ended
    s.shed = 3;
    s.dropped = 3;
    std::string why;
    EXPECT_FALSE(serveAccountingHolds(s, &why));
    EXPECT_NE(why.find("!= admitted 90"), std::string::npos) << why;

    s.completed = 84;
    s.rejected = 11; // offered no longer splits into admitted+rejected
    EXPECT_FALSE(serveAccountingHolds(s, &why));
    EXPECT_NE(why.find("!= offered 100"), std::string::npos) << why;
}
