// barrier_test.cpp — ObstacleGrid domain and barrier-domain broadcast
// (the paper's stated future work, Sec. 4).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "grid/obstacle_grid.hpp"
#include "models/colocation.hpp"
#include "rng/rng.hpp"
#include "walk/step.hpp"

namespace smn {
namespace {

using grid::ObstacleGrid;
using grid::Point;

// ------------------------------------------------------------ ObstacleGrid

TEST(ObstacleGrid, OpenByDefault) {
    const auto g = ObstacleGrid::square(5);
    EXPECT_EQ(g.size(), 25);
    EXPECT_EQ(g.open_count(), 25);
    EXPECT_TRUE(g.contains({2, 2}));
    EXPECT_TRUE(g.open_region_connected());
}

TEST(ObstacleGrid, BlockRemovesNode) {
    auto g = ObstacleGrid::square(5);
    g.block({2, 2});
    EXPECT_EQ(g.open_count(), 24);
    EXPECT_FALSE(g.contains({2, 2}));
    EXPECT_TRUE(g.in_bounds({2, 2}));
    EXPECT_TRUE(g.is_blocked({2, 2}));
    g.block({2, 2});  // idempotent
    EXPECT_EQ(g.open_count(), 24);
}

TEST(ObstacleGrid, BlockOffGridThrows) {
    auto g = ObstacleGrid::square(4);
    EXPECT_THROW(g.block({4, 0}), std::invalid_argument);
}

TEST(ObstacleGrid, NeighborsExcludeBlocked) {
    auto g = ObstacleGrid::square(5);
    g.block({2, 1});
    g.block({1, 2});
    std::array<Point, 4> nbr;
    const int count = g.neighbors({2, 2}, std::span<Point, 4>{nbr});
    EXPECT_EQ(count, 2);  // (3,2) and (2,3) remain
    for (int i = 0; i < count; ++i) {
        EXPECT_FALSE(g.is_blocked(nbr[static_cast<std::size_t>(i)]));
    }
    EXPECT_EQ(g.degree({2, 2}), 2);
}

TEST(ObstacleGrid, VerticalWallGeometry) {
    const auto g = ObstacleGrid::with_vertical_wall(8, 4, 3, 5);
    // Column 4 blocked except rows 3 and 4.
    for (grid::Coord y = 0; y < 8; ++y) {
        EXPECT_EQ(g.contains({4, y}), y == 3 || y == 4) << y;
    }
    EXPECT_EQ(g.open_count(), 64 - 6);
    EXPECT_TRUE(g.open_region_connected());
}

TEST(ObstacleGrid, SealedWallDisconnects) {
    const auto g = ObstacleGrid::with_vertical_wall(8, 4, 0, 0);
    EXPECT_EQ(g.open_count(), 64 - 8);
    EXPECT_FALSE(g.open_region_connected());
}

TEST(ObstacleGrid, WallArgumentValidation) {
    EXPECT_THROW(ObstacleGrid::with_vertical_wall(8, 8, 0, 0), std::invalid_argument);
    EXPECT_THROW(ObstacleGrid::with_vertical_wall(8, 4, 5, 3), std::invalid_argument);
    EXPECT_THROW(ObstacleGrid::with_vertical_wall(8, 4, 0, 9), std::invalid_argument);
}

TEST(ObstacleGrid, RandomOpenNodeAvoidsWalls) {
    auto g = ObstacleGrid::with_vertical_wall(8, 4, 0, 1);
    rng::Rng rng{1};
    for (int i = 0; i < 500; ++i) {
        const auto p = g.random_open_node(rng);
        EXPECT_TRUE(g.contains(p));
    }
}

TEST(ObstacleGrid, WalkNeverEntersBlockedNodes) {
    auto g = ObstacleGrid::with_vertical_wall(12, 6, 5, 7);
    rng::Rng rng{2};
    Point p{2, 2};
    for (int t = 0; t < 5000; ++t) {
        p = walk::step(g, p, rng);
        EXPECT_TRUE(g.contains(p));
    }
}

TEST(ObstacleGrid, WalkCrossesGapEventually) {
    auto g = ObstacleGrid::with_vertical_wall(12, 6, 5, 7);
    rng::Rng rng{3};
    Point p{2, 2};  // left side
    bool crossed = false;
    for (int t = 0; t < 200000 && !crossed; ++t) {
        p = walk::step(g, p, rng);
        crossed = p.x > 6;
    }
    EXPECT_TRUE(crossed);
}

TEST(ObstacleGrid, WalkTrappedBySealedWall) {
    auto g = ObstacleGrid::with_vertical_wall(12, 6, 0, 0);
    rng::Rng rng{4};
    Point p{2, 2};  // left side
    for (int t = 0; t < 20000; ++t) {
        p = walk::step(g, p, rng);
        EXPECT_LT(p.x, 6);
    }
}

// The load-bearing modelling property: the lazy 1/5 kernel keeps the
// uniform distribution over open nodes stationary even with obstacles.
TEST(ObstacleGrid, LazyWalkUniformStationaryWithObstacles) {
    auto g = ObstacleGrid::square(6);
    g.block({2, 2});
    g.block({3, 3});
    g.block({0, 5});
    rng::Rng rng{5};
    constexpr int kAgents = 30000;
    std::vector<Point> pos;
    pos.reserve(kAgents);
    for (int i = 0; i < kAgents; ++i) pos.push_back(g.random_open_node(rng));
    for (int t = 0; t < 40; ++t) {
        for (auto& p : pos) p = walk::step(g, p, rng);
    }
    std::vector<int> counts(static_cast<std::size_t>(g.size()), 0);
    for (const auto& p : pos) ++counts[static_cast<std::size_t>(g.node_id(p))];
    const double expected = static_cast<double>(kAgents) / static_cast<double>(g.open_count());
    double chi2 = 0.0;
    for (grid::NodeId id = 0; id < g.size(); ++id) {
        if (g.is_blocked(g.point_of(id))) {
            EXPECT_EQ(counts[static_cast<std::size_t>(id)], 0);
            continue;
        }
        const double d = counts[static_cast<std::size_t>(id)] - expected;
        chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 110.0);  // 32 dof, generous bound
}

// ---------------------------------------------- ColocationBroadcast barrier

using BarrierBroadcast = models::ColocationBroadcast<ObstacleGrid>;

TEST(Barrier, RejectsBadInputs) {
    models::ColocationConfig cfg;
    cfg.k = 0;
    EXPECT_THROW((BarrierBroadcast{ObstacleGrid::square(6), cfg}), std::invalid_argument);
}

TEST(Barrier, CompletesOnOpenDomain) {
    models::ColocationConfig cfg;
    cfg.k = 6;
    cfg.seed = 6;
    const auto result = BarrierBroadcast{ObstacleGrid::square(10), cfg}.run(1 << 24);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.informed_count, 6);
}

TEST(Barrier, CompletesThroughGap) {
    models::ColocationConfig cfg;
    cfg.k = 8;
    cfg.seed = 7;
    const auto result =
        BarrierBroadcast{ObstacleGrid::with_vertical_wall(12, 6, 5, 7), cfg}.run(1 << 26);
    EXPECT_TRUE(result.completed);
}

TEST(Barrier, SealedWallNeverCompletesWithAgentsOnBothSides) {
    const auto g = ObstacleGrid::with_vertical_wall(12, 6, 0, 0);
    // Find a seed where agents land on both sides (almost always).
    for (std::uint64_t seed = 8; seed < 16; ++seed) {
        models::ColocationConfig cfg;
        cfg.k = 8;
        cfg.seed = seed;
        BarrierBroadcast process{g, cfg};
        bool left = false;
        bool right = false;
        for (std::int32_t a = 0; a < 8; ++a) {
            (process.position(a).x < 6 ? left : right) = true;
        }
        if (!(left && right)) continue;
        const auto result = process.run(20000);
        EXPECT_FALSE(result.completed) << "seed " << seed;
        EXPECT_EQ(result.steps, 20000);
        EXPECT_LT(result.informed_count, 8);
        EXPECT_GE(result.informed_count, 1);
        return;  // one demonstrating seed suffices
    }
    FAIL() << "no seed placed agents on both sides of the wall";
}

TEST(Barrier, InformedCountMonotone) {
    models::ColocationConfig cfg;
    cfg.k = 6;
    cfg.seed = 9;
    BarrierBroadcast process{ObstacleGrid::with_vertical_wall(10, 5, 4, 6), cfg};
    auto prev = process.informed_count();
    for (int t = 0; t < 2000 && !process.complete(); ++t) {
        process.step();
        EXPECT_GE(process.informed_count(), prev);
        prev = process.informed_count();
    }
}

TEST(Barrier, DeterministicGivenSeed) {
    const auto g = ObstacleGrid::with_vertical_wall(10, 5, 4, 6);
    models::ColocationConfig cfg;
    cfg.k = 5;
    cfg.seed = 10;
    const auto a = BarrierBroadcast{g, cfg}.run(1 << 24);
    const auto b = BarrierBroadcast{g, cfg}.run(1 << 24);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.steps, b.steps);
}

// Narrower gaps slow the broadcast (stochastically).
TEST(Barrier, NarrowGapSlowerThanWideGap) {
    double wide_total = 0.0;
    double narrow_total = 0.0;
    constexpr int kReps = 12;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        models::ColocationConfig cfg;
        cfg.k = 10;
        cfg.seed = seed;
        const auto wide =
            BarrierBroadcast{ObstacleGrid::with_vertical_wall(16, 8, 2, 14), cfg}.run(1 << 26);
        const auto narrow =
            BarrierBroadcast{ObstacleGrid::with_vertical_wall(16, 8, 7, 8), cfg}.run(1 << 26);
        ASSERT_TRUE(wide.completed && narrow.completed);
        wide_total += static_cast<double>(wide.steps);
        narrow_total += static_cast<double>(narrow.steps);
    }
    EXPECT_GT(narrow_total, wide_total);
}

}  // namespace
}  // namespace smn
