// churn_test.cpp — broadcast under agent churn, and CellReachObserver.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cell_observer.hpp"
#include "core/engine.hpp"
#include "grid/grid.hpp"
#include "models/colocation.hpp"

namespace smn {
namespace {

// ------------------------------------------------- ColocationBroadcast churn

models::ColocationResult run_churn(grid::Coord side, const models::ColocationConfig& cfg,
                                   std::int64_t max_steps) {
    return models::ColocationBroadcast{grid::Grid2D::square(side), cfg}.run(max_steps);
}

TEST(Churn, RejectsBadConfig) {
    const auto g = grid::Grid2D::square(8);
    models::ColocationConfig cfg;
    cfg.k = 0;
    EXPECT_THROW((models::ColocationBroadcast{g, cfg}), std::invalid_argument);
    cfg = {};
    cfg.churn_rate = -0.1;
    EXPECT_THROW((models::ColocationBroadcast{g, cfg}), std::invalid_argument);
    cfg = {};
    cfg.churn_rate = 1.5;
    EXPECT_THROW((models::ColocationBroadcast{g, cfg}), std::invalid_argument);
}

// Steps ColocationBroadcast<Grid2D> at churn 0 and BroadcastProcess at
// r = 0 from the same seed and requires the same positions and informed
// flags at t = 0 and after every step: until both complete (on the same
// step), or for `prefix` steps when `prefix` > 0. The two share only the
// RNG and the co-location table; one walks agent by agent through
// walk::step, the other block-draws and decodes through the SIMD layer.
void expect_same_trajectory(grid::Coord side, std::int32_t k, std::uint64_t seed,
                            walk::WalkKind walk, std::int64_t prefix) {
    SCOPED_TRACE(testing::Message() << "side " << side << " k " << k << " seed " << seed
                                    << " walk " << walk::walk_kind_name(walk));
    models::ColocationConfig ccfg;
    ccfg.k = k;
    ccfg.seed = seed;
    ccfg.walk = walk;
    models::ColocationBroadcast churn{grid::Grid2D::square(side), ccfg};
    core::EngineConfig ecfg;
    ecfg.side = side;
    ecfg.k = k;
    ecfg.seed = seed;
    ecfg.walk = walk;
    core::BroadcastProcess engine{ecfg};
    const std::int64_t cap = prefix > 0 ? prefix : std::int64_t{1} << 22;
    for (std::int64_t t = 0;; ++t) {
        const auto& rumor = engine.view().rumor;
        for (std::int32_t a = 0; a < k; ++a) {
            if (churn.position(a) != engine.agents().position(a) ||
                churn.is_informed(a) != rumor.is_informed(a)) {
                FAIL() << "t " << t << " agent " << a << ": churn " << churn.position(a)
                       << " informed " << churn.is_informed(a) << ", engine "
                       << engine.agents().position(a) << " informed " << rumor.is_informed(a);
            }
        }
        ASSERT_EQ(churn.complete(), engine.complete()) << "t " << t;
        if (engine.complete() || t == cap) {
            ASSERT_TRUE(prefix > 0 || engine.complete()) << "no completion within " << cap;
            return;
        }
        churn.step();
        engine.step();
    }
}

// The churn model at rate 0 is the paper's r = 0 broadcast word for word,
// so it witnesses the engine pathwise. The simple walk is compared over a
// prefix only: its parity can keep two agents apart forever at r = 0.
TEST(Churn, ZeroChurnBehavesLikePlainBroadcast) {
    models::ColocationConfig cfg;
    cfg.k = 6;
    cfg.churn_rate = 0.0;
    cfg.seed = 1;
    const auto result = run_churn(10, cfg, 1 << 24);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.extinct);
    EXPECT_EQ(result.replacements, 0);

    constexpr std::int64_t kSimplePrefix = 500;
    for (const grid::Coord side : {1, 2, 5, 8, 16, 32, 64}) {
        for (const std::int32_t k : {1, 2, 7, 16, 64, 300}) {
            for (std::uint64_t seed = 1; seed <= 10; ++seed) {
                for (const auto& [walk, prefix] :
                     {std::pair{walk::WalkKind::kLazyPaper, std::int64_t{0}},
                      std::pair{walk::WalkKind::kLazyHalf, std::int64_t{0}},
                      std::pair{walk::WalkKind::kSimple, kSimplePrefix}}) {
                    expect_same_trajectory(side, k, seed, walk, prefix);
                    if (HasFatalFailure()) return;
                }
            }
        }
    }
}

TEST(Churn, RelocationChurnAlwaysCompletes) {
    models::ColocationConfig cfg;
    cfg.k = 8;
    cfg.churn_rate = 0.01;
    cfg.reset_knowledge = false;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cfg.seed = seed;
        const auto result = run_churn(12, cfg, 1 << 24);
        EXPECT_TRUE(result.completed) << seed;
        EXPECT_GT(result.replacements, 0);
    }
}

TEST(Churn, FullResetChurnGoesExtinctFast) {
    // churn_rate = 1 with knowledge reset: every agent (including every
    // informed one) is replaced each step; unless a co-location rescue
    // happens instantly the rumor dies.
    models::ColocationConfig cfg;
    cfg.k = 4;
    cfg.churn_rate = 1.0;
    cfg.reset_knowledge = true;
    int extinct = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        cfg.seed = seed;
        const auto result = run_churn(20, cfg, 10000);
        extinct += result.extinct;
    }
    EXPECT_GE(extinct, 8);  // overwhelmingly extinction
}

TEST(Churn, TerminatesWithEitherOutcome) {
    models::ColocationConfig cfg;
    cfg.k = 6;
    cfg.churn_rate = 0.003;
    cfg.reset_knowledge = true;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cfg.seed = seed;
        const auto result = run_churn(14, cfg, 1 << 24);
        EXPECT_TRUE(result.completed || result.extinct) << seed;
        EXPECT_NE(result.completed && result.extinct, true);
    }
}

TEST(Churn, RelocationChurnSpeedsBroadcastOnAverage) {
    models::ColocationConfig cfg;
    cfg.k = 8;
    cfg.reset_knowledge = false;
    double slow_total = 0.0;
    double fast_total = 0.0;
    constexpr int kReps = 10;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        cfg.seed = seed;
        cfg.churn_rate = 0.0;
        slow_total += static_cast<double>(run_churn(20, cfg, 1 << 26).steps);
        cfg.churn_rate = 0.05;
        fast_total += static_cast<double>(run_churn(20, cfg, 1 << 26).steps);
    }
    EXPECT_LT(fast_total, slow_total);
}

TEST(Churn, DeterministicGivenSeed) {
    models::ColocationConfig cfg;
    cfg.k = 5;
    cfg.churn_rate = 0.01;
    cfg.seed = 42;
    const auto a = run_churn(12, cfg, 1 << 24);
    const auto b = run_churn(12, cfg, 1 << 24);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.replacements, b.replacements);
}

// -------------------------------------------------------- CellReachObserver

TEST(CellReach, TracksSourceCellAtTimeZero) {
    core::EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 8;
    cfg.seed = 3;
    core::BroadcastProcess process{cfg};
    core::CellReachObserver cells{process.grid(), 4};
    cells.on_step(process.view());
    EXPECT_GE(cells.reached_count(), 1);
    EXPECT_GE(cells.source_cell(), 0);
    EXPECT_EQ(cells.reach_time(cells.source_cell()), 0);
}

TEST(CellReach, EventuallyReachesAllCells) {
    core::EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 8;
    cfg.seed = 4;
    core::BroadcastProcess process{cfg};
    core::CellReachObserver cells{process.grid(), 4};
    for (int t = 0; t < 200000 && !cells.all_reached(); ++t) {
        process.step();
        cells.on_step(process.view());
    }
    EXPECT_TRUE(cells.all_reached());
    EXPECT_GE(cells.all_reached_time(), 0);
    for (grid::CellId c = 0; c < cells.tessellation().cell_count(); ++c) {
        EXPECT_GE(cells.reach_time(c), 0);
        EXPECT_LE(cells.reach_time(c), cells.all_reached_time());
    }
}

TEST(CellReach, ReachTimesRoughlyIncreaseWithDistance) {
    core::EngineConfig cfg;
    cfg.side = 32;
    cfg.k = 16;
    cfg.seed = 5;
    core::BroadcastProcess process{cfg};
    core::CellReachObserver cells{process.grid(), 8};
    cells.on_step(process.view());
    for (int t = 0; t < 500000 && !cells.all_reached(); ++t) {
        process.step();
        cells.on_step(process.view());
    }
    ASSERT_TRUE(cells.all_reached());
    // The wavefront: the nearest ring is reached before the farthest ring.
    const auto max_d = cells.max_cell_distance();
    ASSERT_GE(max_d, 2);
    EXPECT_LE(cells.mean_reach_at_distance(0), cells.mean_reach_at_distance(max_d));
}

TEST(CellReach, MeanReachAtUnreachedDistanceIsNegative) {
    core::EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 4;
    cfg.seed = 6;
    core::BroadcastProcess process{cfg};
    core::CellReachObserver cells{process.grid(), 4};
    cells.on_step(process.view());
    // Only the t = 0 snapshot: distant rings are unreached.
    EXPECT_LT(cells.mean_reach_at_distance(cells.max_cell_distance()), 0.0);

    // A half-reached ring reads −1 too, not the mean of its reached cells:
    // of the two cells at distance 1 from the source cell (0, 0), only
    // (1, 0) hosts an informed agent.
    core::CellReachObserver ring{process.grid(), 4};
    core::SingleRumor rumor{2, 0};
    rumor.inform(1, 0);
    const std::vector<grid::Point> positions{{0, 0}, {5, 0}};
    ring.on_step(core::StepView{.time = 3, .positions = positions, .rumor = rumor});
    EXPECT_EQ(ring.mean_reach_at_distance(0), 3.0);
    EXPECT_EQ(ring.reach_time(ring.tessellation().cell_of({5, 0})), 3);
    EXPECT_LT(ring.mean_reach_at_distance(1), 0.0);
}

}  // namespace
}  // namespace smn
