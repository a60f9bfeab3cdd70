// spatial_test.cpp — the stamped co-location table (and the standalone
// models' flood over it) and the BucketIndex cell list, including randomized
// equivalence against brute-force references.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "grid/grid.hpp"
#include "models/colocation.hpp"
#include "rng/rng.hpp"
#include "spatial/bucket_index.hpp"
#include "spatial/colocation_table.hpp"
#include "walk/ensemble.hpp"

namespace smn::spatial {
namespace {

using grid::Grid2D;
using grid::Metric;
using grid::Point;

// ------------------------------------------------------ ColocationTable

// Claims every agent's node in one pass; returns, per agent, the first
// agent that claimed its node (itself if it was the first).
template <typename Table>
std::vector<std::int32_t> first_agents(Table& table, const Grid2D& g,
                                       const std::vector<Point>& pos) {
    const auto pass = table.begin_pass();
    std::vector<std::int32_t> first(pos.size());
    for (std::size_t a = 0; a < pos.size(); ++a) {
        const auto prior = pass.claim(g.node_id(pos[a]), static_cast<std::int32_t>(a));
        first[a] = prior == kNone ? static_cast<std::int32_t>(a) : prior;
    }
    return first;
}

// The O(k²) reference: the lowest agent id on each agent's node.
std::vector<std::int32_t> first_agents_naive(const std::vector<Point>& pos) {
    std::vector<std::int32_t> first(pos.size());
    for (std::size_t a = 0; a < pos.size(); ++a) {
        std::size_t b = 0;
        while (pos[b] != pos[a]) ++b;
        first[a] = static_cast<std::int32_t>(b);
    }
    return first;
}

std::vector<Point> random_positions(const Grid2D& g, int k, rng::Rng& rng) {
    std::vector<Point> pos;
    for (int i = 0; i < k; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    return pos;
}

TEST(ColocationTable, GroupsColocatedAgentsUnderTheFirst) {
    const auto g = Grid2D::square(5);
    ColocationTable table{g.size()};
    const std::vector<Point> pos{{1, 1}, {2, 2}, {1, 1}, {0, 0}, {1, 1}};
    EXPECT_EQ(first_agents(table, g, pos), (std::vector<std::int32_t>{0, 1, 0, 3, 0}));
}

TEST(ColocationTable, ClaimOnEmptyNodeReturnsNoneOncePerNode) {
    const auto g = Grid2D::square(6);
    ColocationTable table{g.size()};
    const auto pass = table.begin_pass();
    const std::vector<Point> pos{{1, 1}, {1, 1}, {2, 3}, {2, 3}, {5, 5}};
    int empty = 0;
    for (std::size_t a = 0; a < pos.size(); ++a) {
        empty += pass.claim(g.node_id(pos[a]), static_cast<std::int32_t>(a)) == kNone ? 1 : 0;
    }
    EXPECT_EQ(empty, 3);  // one per occupied node
    EXPECT_EQ(pass.claim(g.node_id({3, 3}), 7), kNone);
    EXPECT_EQ(pass.claim(g.node_id({3, 3}), 8), 7);
}

TEST(ColocationTable, NewPassClearsPreviousClaimsAndFlags) {
    const auto g = Grid2D::square(6);
    ColocationTable table{g.size()};
    auto pass = table.begin_pass();
    EXPECT_EQ(pass.claim(g.node_id({0, 0}), 0), kNone);
    EXPECT_EQ(pass.claim(g.node_id({1, 1}), 1), kNone);
    pass.flag(g.node_id({1, 1}));
    EXPECT_TRUE(pass.flagged(g.node_id({1, 1})));
    EXPECT_FALSE(pass.flagged(g.node_id({0, 0})));  // claimed, not flagged
    EXPECT_FALSE(pass.flagged(g.node_id({5, 5})));  // never claimed
    pass = table.begin_pass();
    EXPECT_FALSE(pass.flagged(g.node_id({1, 1})));
    EXPECT_EQ(pass.claim(g.node_id({0, 0}), 4), kNone);
    EXPECT_EQ(pass.claim(g.node_id({1, 1}), 5), kNone);
    EXPECT_FALSE(pass.flagged(g.node_id({1, 1})));
    EXPECT_EQ(pass.claim(g.node_id({1, 1}), 6), 5);
}

TEST(ColocationTable, FlagKeepsTheFirstAgent) {
    const auto g = Grid2D::square(4);
    ColocationTable table{g.size()};
    const auto pass = table.begin_pass();
    const auto node = g.node_id({2, 1});
    EXPECT_EQ(pass.claim(node, 3), kNone);
    pass.flag(node);
    EXPECT_EQ(pass.claim(node, 9), 3);
    EXPECT_TRUE(pass.flagged(node));
}

// first() reads a node's first agent without claiming it: kNone for a node
// unclaimed in this pass (even one claimed in an earlier pass), the
// claimer otherwise, flagged or not.
TEST(ColocationTable, FirstReadsTheClaimWithoutClaiming) {
    const auto g = Grid2D::square(4);
    ColocationTable table{g.size()};
    auto pass = table.begin_pass();
    const auto a = g.node_id({1, 2});
    const auto b = g.node_id({3, 3});
    EXPECT_EQ(pass.first(a), kNone);
    EXPECT_EQ(pass.claim(a, 0), kNone);  // first() left the node empty
    EXPECT_EQ(pass.claim(a, 5), 0);
    EXPECT_EQ(pass.claim(b, 7), kNone);
    pass.flag(b);
    EXPECT_EQ(pass.first(a), 0);
    EXPECT_EQ(pass.first(b), 7);
    EXPECT_EQ(pass.first(g.node_id({0, 0})), kNone);
    pass = table.begin_pass();
    EXPECT_EQ(pass.first(a), kNone);
    EXPECT_EQ(pass.first(b), kNone);
    EXPECT_EQ(pass.claim(b, 2), kNone);
    EXPECT_EQ(pass.first(b), 2);
}

TEST(ColocationTable, RepeatedPassesMatchBruteForce) {
    const auto g = Grid2D::square(12);
    ColocationTable table{g.size()};
    rng::Rng rng{1};
    for (int round = 0; round < 20; ++round) {
        const auto pos = random_positions(g, 1 + static_cast<int>(rng.below(60)), rng);
        EXPECT_EQ(first_agents(table, g, pos), first_agents_naive(pos)) << "round " << round;
    }
}

// A stamp of 8 bits wraps after 255 passes. A slot claimed at stamp 1 and
// left alone until the stamp is 1 again must read empty, so the wrap has
// to clear the table.
TEST(ColocationTable, StampWrapClearsTheTable) {
    const auto g = Grid2D::square(8);
    BasicColocationTable<std::uint8_t> table{g.size()};
    const auto stale = g.node_id({7, 7});
    auto pass = table.begin_pass();
    ASSERT_EQ(table.stamp(), 1);
    EXPECT_EQ(pass.claim(stale, 0), kNone);
    pass.flag(stale);
    rng::Rng rng{2};
    const auto random_open = [&] {  // any node but `stale`
        Point p{7, 7};
        while (g.node_id(p) == stale) p = walk::AgentEnsemble::random_node(g, rng);
        return p;
    };
    const auto random_round = [&](bool with_stale) {
        std::vector<Point> pos;
        for (int i = 0; i < 12; ++i) pos.push_back(random_open());
        if (with_stale) pos.push_back({7, 7});
        return pos;
    };
    for (int round = 2; round <= 255; ++round) {  // up to the last stamp
        const auto pos = random_round(false);
        EXPECT_EQ(first_agents(table, g, pos), first_agents_naive(pos)) << "round " << round;
        EXPECT_EQ(table.stamp(), round);
    }
    pass = table.begin_pass();  // the wrap
    EXPECT_EQ(table.stamp(), 1);
    EXPECT_FALSE(pass.flagged(stale));
    EXPECT_EQ(pass.claim(stale, 3), kNone);
    for (int round = 257; round <= 600; ++round) {  // past the wrap, and the next one
        const auto pos = random_round(true);
        EXPECT_EQ(first_agents(table, g, pos), first_agents_naive(pos)) << "round " << round;
        EXPECT_EQ(table.stamp(), (round - 1) % 255 + 1);
    }
}

// models::ColocationBroadcast's flood against the O(k²) flood: after the
// t = 0 flood and after every step, an agent is informed iff it was
// informed before the flood or shares its node with an agent that was.
TEST(ColocationFlood, MatchesBruteForceFlood) {
    rng::Rng rng{3};
    for (const grid::Coord side : {1, 3, 8, 16}) {
        for (int round = 0; round < 30; ++round) {
            models::ColocationConfig cfg;
            cfg.k = 1 + static_cast<std::int32_t>(rng.below(40));
            cfg.seed = rng.next_u64();
            models::ColocationBroadcast process{Grid2D::square(side), cfg};
            const auto flags = [&] {
                std::vector<std::uint8_t> informed;
                for (std::int32_t a = 0; a < cfg.k; ++a) informed.push_back(process.is_informed(a));
                return informed;
            };
            std::vector<std::uint8_t> before(static_cast<std::size_t>(cfg.k), 0);
            before[0] = 1;
            for (int t = 0; t <= 4; ++t) {
                if (t > 0) {
                    before = flags();
                    process.step();
                }
                auto expected = before;
                for (std::int32_t a = 0; a < cfg.k; ++a) {
                    for (std::int32_t b = 0; b < cfg.k; ++b) {
                        if (before[static_cast<std::size_t>(b)] != 0 &&
                            process.position(b) == process.position(a)) {
                            expected[static_cast<std::size_t>(a)] = 1;
                        }
                    }
                }
                EXPECT_EQ(flags(), expected) << "side " << side << " round " << round << " t " << t;
                EXPECT_EQ(process.informed_count(), std::count(expected.begin(), expected.end(), 1))
                    << "side " << side << " round " << round << " t " << t;
            }
        }
    }
}

// On a single node every agent is co-located, so the t = 0 flood informs
// all of them. Full knowledge-resetting churn then replaces every agent
// with an uninformed one, and the flood that follows informs nobody.
TEST(ColocationFlood, InformsNothingWithoutAnInformedAgent) {
    models::ColocationConfig cfg;
    cfg.k = 3;
    cfg.churn_rate = 1.0;
    cfg.reset_knowledge = true;
    models::ColocationBroadcast process{Grid2D::square(1), cfg};
    EXPECT_EQ(process.informed_count(), 3);
    process.step();
    EXPECT_EQ(process.informed_count(), 0);
    EXPECT_TRUE(process.extinct());
    for (std::int32_t a = 0; a < cfg.k; ++a) EXPECT_FALSE(process.is_informed(a)) << a;
}

// ----------------------------------------------------------- BucketIndex

TEST(Bucket, RejectsBadSide) {
    const auto g = Grid2D::square(8);
    EXPECT_THROW(BucketIndex(g, 0), std::invalid_argument);
}

TEST(Bucket, ForRadiusClampsToOne) {
    const auto g = Grid2D::square(8);
    const auto idx = BucketIndex::for_radius(g, 0);
    EXPECT_EQ(idx.bucket_side(), 1);
}

TEST(Bucket, FindsSelfAndExcludesFar) {
    const auto g = Grid2D::square(20);
    auto idx = BucketIndex::for_radius(g, 3);
    const std::vector<Point> pos{{5, 5}, {6, 5}, {19, 19}};
    idx.rebuild(pos);
    std::set<std::int32_t> seen;
    idx.for_each_within({5, 5}, 3, Metric::kManhattan,
                        [&](std::int32_t a) { seen.insert(a); });
    EXPECT_EQ(seen, (std::set<std::int32_t>{0, 1}));
}

TEST(Bucket, RadiusBoundaryIsInclusive) {
    const auto g = Grid2D::square(20);
    auto idx = BucketIndex::for_radius(g, 4);
    const std::vector<Point> pos{{5, 5}, {9, 5}, {10, 5}};
    idx.rebuild(pos);
    std::set<std::int32_t> seen;
    idx.for_each_within({5, 5}, 4, Metric::kManhattan,
                        [&](std::int32_t a) { seen.insert(a); });
    EXPECT_TRUE(seen.count(1));   // distance exactly 4
    EXPECT_FALSE(seen.count(2));  // distance 5
}

// Randomized equivalence with the brute-force scan, across metrics, radii,
// grid shapes and densities. This is the load-bearing test for visibility
// graph correctness.
struct BucketSweepParam {
    grid::Coord side;
    int agents;
    std::int64_t radius;
    Metric metric;
};

void PrintTo(const BucketSweepParam& p, std::ostream* os) {
    *os << "side" << p.side << "_k" << p.agents << "_r" << p.radius << "_"
        << grid::metric_name(p.metric);
}

class BucketSweep : public ::testing::TestWithParam<BucketSweepParam> {};

TEST_P(BucketSweep, MatchesNaiveReference) {
    const auto param = GetParam();
    const auto g = Grid2D::square(param.side);
    rng::Rng rng{static_cast<std::uint64_t>(param.side * 1000 + param.agents)};
    auto idx = BucketIndex::for_radius(g, param.radius);

    for (int round = 0; round < 10; ++round) {
        std::vector<Point> pos;
        pos.reserve(static_cast<std::size_t>(param.agents));
        for (int i = 0; i < param.agents; ++i) {
            pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        }
        idx.rebuild(pos);
        // Probe from each agent position plus a few random nodes.
        std::vector<Point> probes(pos.begin(), pos.end());
        for (int i = 0; i < 5; ++i) probes.push_back(walk::AgentEnsemble::random_node(g, rng));
        for (const auto& probe : probes) {
            std::set<std::int32_t> fast;
            std::set<std::int32_t> slow;
            idx.for_each_within(probe, param.radius, param.metric,
                                [&](std::int32_t a) { fast.insert(a); });
            BucketIndex::for_each_within_naive(pos, probe, param.radius, param.metric,
                                               [&](std::int32_t a) { slow.insert(a); });
            EXPECT_EQ(fast, slow) << "probe " << probe << " radius " << param.radius
                                  << " metric " << grid::metric_name(param.metric);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndMetrics, BucketSweep,
    ::testing::Values(
        BucketSweepParam{16, 12, 1, Metric::kManhattan},
        BucketSweepParam{16, 12, 2, Metric::kManhattan},
        BucketSweepParam{16, 40, 3, Metric::kManhattan},
        BucketSweepParam{16, 40, 5, Metric::kChebyshev},
        BucketSweepParam{16, 40, 4, Metric::kEuclidean},
        BucketSweepParam{32, 80, 7, Metric::kManhattan},
        BucketSweepParam{32, 80, 7, Metric::kEuclidean},
        BucketSweepParam{7, 20, 6, Metric::kManhattan},   // bucket grid ~1×1
        BucketSweepParam{5, 10, 5, Metric::kChebyshev},   // radius = side
        BucketSweepParam{64, 5, 20, Metric::kManhattan},  // sparse, big radius
        BucketSweepParam{64, 200, 1, Metric::kManhattan}  // dense, tiny radius
        ));

TEST(Bucket, RebuildClearsPreviousState) {
    const auto g = Grid2D::square(16);
    auto idx = BucketIndex::for_radius(g, 2);
    std::vector<Point> pos{{3, 3}, {4, 4}};
    idx.rebuild(pos);
    std::vector<Point> pos2{{12, 12}};
    idx.rebuild(pos2);
    int found = 0;
    idx.for_each_within({3, 3}, 2, Metric::kManhattan, [&](std::int32_t) { ++found; });
    EXPECT_EQ(found, 0);
    idx.for_each_within({12, 12}, 2, Metric::kManhattan, [&](std::int32_t) { ++found; });
    EXPECT_EQ(found, 1);
}

// Regression: querying with radius > bucket_side used to be a debug-only
// assert, so release builds silently dropped neighbors outside the 3×3
// block. The scan now widens to the needed number of bucket rings in all
// build types.
TEST(Bucket, RadiusLargerThanBucketSideFindsAllNeighbors) {
    const auto g = Grid2D::square(32);
    BucketIndex idx{g, 2};  // deliberately smaller than the query radius
    const std::vector<Point> pos{{5, 5}, {12, 5}, {5, 12}, {16, 16}, {31, 31}, {5, 6}};
    idx.rebuild(pos);
    for (const std::int64_t radius : {3, 7, 11, 40}) {
        for (const auto metric : {Metric::kManhattan, Metric::kChebyshev, Metric::kEuclidean}) {
            std::set<std::int32_t> fast;
            std::set<std::int32_t> slow;
            idx.for_each_within({5, 5}, radius, metric, [&](std::int32_t a) { fast.insert(a); });
            BucketIndex::for_each_within_naive(pos, {5, 5}, radius, metric,
                                               [&](std::int32_t a) { slow.insert(a); });
            EXPECT_EQ(fast, slow) << "radius " << radius << " metric "
                                  << grid::metric_name(metric);
        }
    }
}

// The sorted layout for_each_within searches: rows are contiguous and
// ordered, cells within a row ascend by column, and agents within a cell
// keep ascending id order (both counting-sort passes are stable).
TEST(Bucket, RebuildSortsByRowThenColumnThenId) {
    const auto g = Grid2D::square(10);
    BucketIndex idx{g, 3};  // 3 does not divide 10: a ragged last row/column
    rng::Rng rng{5};
    std::vector<Point> pos;
    for (int i = 0; i < 60; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    idx.rebuild(pos);
    ASSERT_EQ(idx.size(), pos.size());
    EXPECT_EQ(idx.row_begin(0), 0u);
    EXPECT_EQ(idx.row_end(idx.buckets_y() - 1), pos.size());
    std::vector<std::int32_t> seen;
    for (grid::Coord row = 0; row < idx.buckets_y(); ++row) {
        for (auto s = idx.row_begin(row); s < idx.row_end(row); ++s) {
            const auto a = idx.ids()[s];
            seen.push_back(a);
            const auto p = pos[static_cast<std::size_t>(a)];
            EXPECT_EQ(idx.xs()[s], p.x);
            EXPECT_EQ(idx.ys()[s], p.y);
            EXPECT_EQ(p.y / 3, row);
            EXPECT_EQ(idx.cols()[s], p.x / 3);
            if (s > idx.row_begin(row)) {
                const auto prev_col = idx.cols()[s - 1];
                EXPECT_LE(prev_col, idx.cols()[s]);
                if (prev_col == idx.cols()[s]) {
                    EXPECT_LT(idx.ids()[s - 1], a);
                }
            }
        }
    }
    std::sort(seen.begin(), seen.end());
    for (std::size_t a = 0; a < seen.size(); ++a) EXPECT_EQ(seen[a], static_cast<std::int32_t>(a));
}

// Radii far beyond the grid used to overflow the cell geometry (a side of
// INT32_MAX wrapped width + side - 1; 2^31 truncated to a negative side;
// 2^32 + 1 truncated to a side of 1). for_radius clamps the side to the
// grid diameter, and queries clamp the radius the same way.
TEST(Bucket, HugeRadiusClampsToTheGridDiameter) {
    const auto g = Grid2D::square(16);
    const std::vector<Point> pos{{0, 0}, {15, 15}, {7, 3}};
    for (const std::int64_t radius : {std::int64_t{40}, std::int64_t{2147483647},
                                      std::int64_t{2147483648}, std::int64_t{4294967297}}) {
        auto idx = BucketIndex::for_radius(g, radius);
        EXPECT_EQ(idx.bucket_side(), 30) << radius;
        EXPECT_EQ(idx.buckets_x(), 1);
        idx.rebuild(pos);
        for (const auto metric : {Metric::kManhattan, Metric::kChebyshev, Metric::kEuclidean}) {
            int found = 0;
            idx.for_each_within({0, 0}, radius, metric, [&](std::int32_t) { ++found; });
            EXPECT_EQ(found, 3) << radius;
        }
    }
}

}  // namespace
}  // namespace smn::spatial
