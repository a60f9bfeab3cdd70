// torus_epidemic_test.cpp — torus broadcast ablation and epidemic-curve
// analytics.
#include <gtest/gtest.h>

#include <vector>

#include "core/broadcast.hpp"
#include "core/epidemic.hpp"
#include "grid/grid.hpp"
#include "models/colocation.hpp"

namespace smn {
namespace {

// ------------------------------------------------ ColocationBroadcast torus

models::ColocationBroadcast<grid::Torus2D> torus_broadcast(grid::Coord side,
                                                           const models::ColocationConfig& cfg) {
    return {grid::Torus2D::square(side), cfg};
}

TEST(Torus, RejectsBadConfig) {
    models::ColocationConfig cfg;
    cfg.k = 0;
    EXPECT_THROW(torus_broadcast(48, cfg), std::invalid_argument);
}

TEST(Torus, SingleAgentImmediate) {
    models::ColocationConfig cfg;
    cfg.k = 1;
    EXPECT_TRUE(torus_broadcast(8, cfg).complete());
}

TEST(Torus, CompletesOnSmallSystem) {
    models::ColocationConfig cfg;
    cfg.k = 6;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cfg.seed = seed;
        const auto result = torus_broadcast(10, cfg).run(1 << 24);
        EXPECT_TRUE(result.completed) << seed;
        EXPECT_EQ(result.informed_count, 6) << seed;
    }
}

TEST(Torus, InformedCountMonotone) {
    models::ColocationConfig cfg;
    cfg.k = 8;
    cfg.seed = 2;
    auto p = torus_broadcast(14, cfg);
    auto prev = p.informed_count();
    for (int t = 0; t < 500 && !p.complete(); ++t) {
        p.step();
        EXPECT_GE(p.informed_count(), prev);
        prev = p.informed_count();
    }
}

TEST(Torus, DeterministicGivenSeed) {
    models::ColocationConfig cfg;
    cfg.k = 6;
    cfg.seed = 3;
    const auto a = torus_broadcast(12, cfg).run(1 << 24);
    const auto b = torus_broadcast(12, cfg).run(1 << 24);
    EXPECT_EQ(a.steps, b.steps);
}

// The reflection-principle argument of Lemma 1 at system level: bounded
// grid and torus broadcast times agree within a constant factor.
TEST(Torus, BoundedAndTorusAgreeWithinConstant) {
    double bounded_total = 0.0;
    double torus_total = 0.0;
    constexpr int kReps = 12;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        core::EngineConfig cfg;
        cfg.side = 20;
        cfg.k = 10;
        cfg.radius = 0;
        cfg.seed = seed;
        bounded_total +=
            static_cast<double>(core::run_broadcast(cfg, {}).broadcast_time);
        models::ColocationConfig torus_cfg;
        torus_cfg.k = 10;
        torus_cfg.seed = seed;
        torus_total += static_cast<double>(torus_broadcast(20, torus_cfg).run(1 << 26).steps);
    }
    const double ratio = bounded_total / torus_total;
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 2.5);
}

// ---------------------------------------------------------------- epidemic

TEST(Epidemic, TimeToCountBasics) {
    const std::vector<std::int32_t> series{1, 1, 3, 5, 5, 8};
    EXPECT_EQ(core::time_to_count(series, 1), 0);
    EXPECT_EQ(core::time_to_count(series, 2), 2);
    EXPECT_EQ(core::time_to_count(series, 5), 3);
    EXPECT_EQ(core::time_to_count(series, 8), 5);
    EXPECT_EQ(core::time_to_count(series, 9), -1);
}

TEST(Epidemic, TimeToFractionRoundsUp) {
    const std::vector<std::int32_t> series{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    // 10% of 10 = 1 → t = 0; 25% of 10 = 2.5 → target 3 → t = 2.
    EXPECT_EQ(core::time_to_fraction(series, 10, 0.10), 0);
    EXPECT_EQ(core::time_to_fraction(series, 10, 0.25), 2);
    EXPECT_EQ(core::time_to_fraction(series, 10, 1.0), 9);
}

TEST(Epidemic, FractionTargetFloorsAtOne) {
    const std::vector<std::int32_t> series{1, 2};
    // 1% of 2 rounds to target 1 (not 0).
    EXPECT_EQ(core::time_to_fraction(series, 2, 0.01), 0);
}

TEST(Epidemic, MilestonesAreOrdered) {
    core::EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 20;
    cfg.seed = 4;
    const auto result = core::run_broadcast(cfg, {.record_series = true});
    ASSERT_TRUE(result.completed);
    const auto ms = core::milestones(result.informed_series, cfg.k);
    EXPECT_GE(ms.t10, 0);
    EXPECT_LE(ms.t10, ms.t50);
    EXPECT_LE(ms.t50, ms.t90);
    EXPECT_LE(ms.t90, ms.t100);
    EXPECT_EQ(ms.t100, result.broadcast_time);
    EXPECT_EQ(ms.straggler_tail(), ms.t100 - ms.t90);
}

TEST(Epidemic, IncompleteSeriesGivesMinusOne) {
    const std::vector<std::int32_t> series{1, 2, 3};
    const auto ms = core::milestones(series, 10);
    EXPECT_EQ(ms.t100, -1);
    EXPECT_EQ(ms.straggler_tail(), -1);
}

}  // namespace
}  // namespace smn
