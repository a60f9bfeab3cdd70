// spatial_test.cpp — OccupancyMap and the BucketIndex cell list, including
// randomized equivalence against the brute-force reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "spatial/bucket_index.hpp"
#include "spatial/occupancy.hpp"
#include "walk/ensemble.hpp"

namespace smn::spatial {
namespace {

using grid::Grid2D;
using grid::Metric;
using grid::Point;

// ---------------------------------------------------------- OccupancyMap

TEST(Occupancy, GroupsColocatedAgents) {
    const auto g = Grid2D::square(5);
    OccupancyMap occ{g};
    const std::vector<Point> pos{{1, 1}, {2, 2}, {1, 1}, {0, 0}, {1, 1}};
    occ.rebuild(pos);
    EXPECT_EQ(occ.count_at({1, 1}), 3);
    EXPECT_EQ(occ.count_at({2, 2}), 1);
    EXPECT_EQ(occ.count_at({0, 0}), 1);
    EXPECT_EQ(occ.count_at({4, 4}), 0);
}

TEST(Occupancy, ForEachVisitsExactlyTheResidents) {
    const auto g = Grid2D::square(5);
    OccupancyMap occ{g};
    const std::vector<Point> pos{{3, 3}, {3, 3}, {0, 1}};
    occ.rebuild(pos);
    std::set<std::int32_t> seen;
    occ.for_each_at({3, 3}, [&](std::int32_t a) { seen.insert(a); });
    EXPECT_EQ(seen, (std::set<std::int32_t>{0, 1}));
}

TEST(Occupancy, FirstAtIsNoneOnEmptyNode) {
    const auto g = Grid2D::square(4);
    OccupancyMap occ{g};
    occ.rebuild(std::vector<Point>{{0, 0}});
    EXPECT_EQ(occ.first_at({3, 3}), kNone);
    EXPECT_NE(occ.first_at({0, 0}), kNone);
}

TEST(Occupancy, OccupiedNodesListsEachNodeOnce) {
    const auto g = Grid2D::square(6);
    OccupancyMap occ{g};
    const std::vector<Point> pos{{1, 1}, {1, 1}, {2, 3}, {2, 3}, {5, 5}};
    occ.rebuild(pos);
    const auto nodes = occ.occupied_nodes();
    std::set<grid::NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), 3u);
    EXPECT_EQ(nodes.size(), 3u);
}

TEST(Occupancy, RebuildClearsPreviousState) {
    const auto g = Grid2D::square(6);
    OccupancyMap occ{g};
    occ.rebuild(std::vector<Point>{{0, 0}, {1, 1}});
    occ.rebuild(std::vector<Point>{{5, 5}});
    EXPECT_EQ(occ.count_at({0, 0}), 0);
    EXPECT_EQ(occ.count_at({1, 1}), 0);
    EXPECT_EQ(occ.count_at({5, 5}), 1);
    EXPECT_EQ(occ.occupied_nodes().size(), 1u);
}

TEST(Occupancy, RepeatedRebuildsAreConsistent) {
    const auto g = Grid2D::square(12);
    OccupancyMap occ{g};
    rng::Rng rng{1};
    for (int round = 0; round < 20; ++round) {
        std::vector<Point> pos;
        const int k = 1 + static_cast<int>(rng.below(30));
        for (int i = 0; i < k; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        occ.rebuild(pos);
        int total = 0;
        for (const auto node : occ.occupied_nodes()) total += occ.count_at(g.point_of(node));
        EXPECT_EQ(total, k);
    }
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

// The sorted layout the visibility pass walks: rows are contiguous and
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
