// models_test.cpp — Frog model, predator–prey, coverage/cover time, dense
// Markovian baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "models/coverage.hpp"
#include "models/dense_markov.hpp"
#include "core/broadcast.hpp"
#include "models/predator_prey.hpp"
#include "walk/ensemble.hpp"

namespace smn::models {
namespace {

// -------------------------------------------------------------- Frog model

TEST(Frog, CompletesOnSmallSystem) {
    core::EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 6;
    cfg.seed = 1;
    cfg.mobility = core::Mobility::kInformedOnly;
    const auto result = core::run_broadcast(cfg, {.max_steps = 2000000});
    EXPECT_TRUE(result.completed);
    EXPECT_GE(result.broadcast_time, 0);
    EXPECT_EQ(result.config.mobility, core::Mobility::kInformedOnly);
}

TEST(Frog, OverridesMobilityEvenIfCallerSetsAllMove) {
    core::EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 4;
    cfg.mobility = core::Mobility::kAllMove;
    cfg.seed = 2;
    // The Frog model is the broadcast engine with its mobility switched.
    cfg.mobility = core::Mobility::kInformedOnly;
    const auto result = core::run_broadcast(cfg, {.max_steps = 2000000});
    EXPECT_EQ(result.config.mobility, core::Mobility::kInformedOnly);
}

// Statistically, the frog model is slower than the fully dynamic model:
// only informed agents hunt, so early spreading is slower (same Θ̃ scale,
// larger constant). Check over paired seeds.
TEST(Frog, SlowerThanDynamicOnAverage) {
    core::EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 8;
    double frog_total = 0.0;
    double dyn_total = 0.0;
    constexpr int kReps = 12;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        cfg.seed = seed;
        cfg.mobility = core::Mobility::kInformedOnly;
        const auto frog = core::run_broadcast(cfg, {.max_steps = 4000000});
        cfg.mobility = core::Mobility::kAllMove;
        const auto dyn = core::run_broadcast(cfg, {.max_steps = 4000000});
        ASSERT_TRUE(frog.completed && dyn.completed);
        frog_total += static_cast<double>(frog.broadcast_time);
        dyn_total += static_cast<double>(dyn.broadcast_time);
    }
    EXPECT_GT(frog_total, 0.8 * dyn_total);  // frog not dramatically faster
}

// ----------------------------------------------------------- predator–prey

TEST(PredatorPrey, RejectsBadConfig) {
    PredatorPreyConfig cfg;
    cfg.predators = 0;
    EXPECT_THROW(run_predator_prey(cfg), std::invalid_argument);
    cfg = {};
    cfg.prey = 0;
    EXPECT_THROW(run_predator_prey(cfg), std::invalid_argument);
    cfg = {};
    cfg.catch_radius = -2;
    EXPECT_THROW(run_predator_prey(cfg), std::invalid_argument);
}

TEST(PredatorPrey, ExtinctionOnSmallGrid) {
    PredatorPreyConfig cfg;
    cfg.side = 8;
    cfg.predators = 6;
    cfg.prey = 4;
    cfg.seed = 3;
    const auto result = run_predator_prey(cfg, 2000000);
    EXPECT_TRUE(result.extinct);
    EXPECT_GE(result.extinction_time, 0);
    EXPECT_EQ(result.survivors, 0);
    ASSERT_EQ(result.catch_times.size(), 4u);
    std::int64_t max_catch = -1;
    for (const auto t : result.catch_times) {
        EXPECT_GE(t, 0);
        max_catch = std::max(max_catch, t);
    }
    EXPECT_EQ(max_catch, result.extinction_time);
}

TEST(PredatorPrey, CapLimitsRun) {
    PredatorPreyConfig cfg;
    cfg.side = 50;
    cfg.predators = 1;
    cfg.prey = 5;
    cfg.seed = 4;
    const auto result = run_predator_prey(cfg, 2);
    if (!result.extinct) {
        EXPECT_EQ(result.extinction_time, -1);
        EXPECT_GT(result.survivors, 0);
    }
}

TEST(PredatorPrey, StaticPreyVariantCompletes) {
    PredatorPreyConfig cfg;
    cfg.side = 8;
    cfg.predators = 6;
    cfg.prey = 4;
    cfg.prey_moves = false;
    cfg.seed = 5;
    const auto result = run_predator_prey(cfg, 2000000);
    EXPECT_TRUE(result.extinct);
}

TEST(PredatorPrey, CatchRadiusSpeedsExtinction) {
    PredatorPreyConfig cfg;
    cfg.side = 16;
    cfg.predators = 4;
    cfg.prey = 4;
    double r0_total = 0.0;
    double r3_total = 0.0;
    constexpr int kReps = 10;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        cfg.seed = seed;
        cfg.catch_radius = 0;
        const auto a = run_predator_prey(cfg, 4000000);
        cfg.catch_radius = 3;
        const auto b = run_predator_prey(cfg, 4000000);
        ASSERT_TRUE(a.extinct && b.extinct);
        r0_total += static_cast<double>(a.extinction_time);
        r3_total += static_cast<double>(b.extinction_time);
    }
    EXPECT_LT(r3_total, r0_total);  // larger capture range can only help
}

TEST(PredatorPrey, MorePredatorsFasterExtinction) {
    PredatorPreyConfig cfg;
    cfg.side = 16;
    cfg.prey = 4;
    double few_total = 0.0;
    double many_total = 0.0;
    constexpr int kReps = 10;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        cfg.seed = seed;
        cfg.predators = 2;
        few_total += static_cast<double>(run_predator_prey(cfg, 8000000).extinction_time);
        cfg.predators = 16;
        many_total += static_cast<double>(run_predator_prey(cfg, 8000000).extinction_time);
    }
    EXPECT_LT(many_total, few_total);
}

// ----------------------------------------------------------- cover/coverage

TEST(Cover, SingleWalkCoversTinyGrid) {
    const auto result = run_cover_time(3, 1, 6, 2000000);
    EXPECT_TRUE(result.covered);
    EXPECT_GE(result.cover_time, 8);  // 9 nodes, needs at least 8 moves
    EXPECT_EQ(result.covered_nodes, 9);
}

TEST(Cover, ManyWalksCoverFasterOnAverage) {
    double k1_total = 0.0;
    double k16_total = 0.0;
    constexpr int kReps = 6;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        const auto a = run_cover_time(12, 1, seed, 30000000);
        const auto b = run_cover_time(12, 16, seed, 30000000);
        ASSERT_TRUE(a.covered && b.covered);
        k1_total += static_cast<double>(a.cover_time);
        k16_total += static_cast<double>(b.cover_time);
    }
    EXPECT_LT(k16_total, k1_total);
}

TEST(Cover, CapReportsPartialCoverage) {
    const auto result = run_cover_time(30, 1, 7, 10);
    EXPECT_FALSE(result.covered);
    EXPECT_EQ(result.cover_time, -1);
    EXPECT_GT(result.covered_nodes, 0);
    EXPECT_LT(result.covered_nodes, 900);
}

TEST(Coverage, BroadcastWithCoverageOrdering) {
    core::EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 6;
    cfg.seed = 8;
    const auto result = run_broadcast_with_coverage(cfg, 4000000);
    ASSERT_TRUE(result.covered);
    ASSERT_TRUE(result.broadcast_completed);
    EXPECT_GE(result.coverage_time, 0);
    EXPECT_GE(result.broadcast_time, 0);
    // Coverage requires visiting every node; with k << n it cannot finish
    // before the broadcast is essentially done. (Not a theorem pathwise,
    // but holds for these parameters.)
    EXPECT_GE(result.coverage_time, result.broadcast_time / 4);
}

TEST(Coverage, SingleAgentCoversEverythingAlone) {
    core::EngineConfig cfg;
    cfg.side = 5;
    cfg.k = 1;
    cfg.seed = 9;
    const auto result = run_broadcast_with_coverage(cfg, 4000000);
    EXPECT_TRUE(result.broadcast_completed);
    EXPECT_EQ(result.broadcast_time, 0);
    EXPECT_TRUE(result.covered);
    EXPECT_GT(result.coverage_time, 0);
}

// ---------------------------------------------------------- dense baseline

TEST(Dense, RejectsBadConfig) {
    DenseConfig cfg;
    cfg.k = 0;
    EXPECT_THROW((void)run_dense_broadcast(cfg), std::invalid_argument);
    cfg = {};
    cfg.R = -1;
    EXPECT_THROW((void)run_dense_broadcast(cfg), std::invalid_argument);
    cfg = {};
    cfg.source = 1000000;
    EXPECT_THROW((void)run_dense_broadcast(cfg), std::invalid_argument);
}

TEST(Dense, JumpWithinStaysInBall) {
    const auto g = grid::Grid2D::square(30);
    rng::Rng rng{10};
    const grid::Point center{15, 15};
    for (const std::int64_t rho : {0LL, 1LL, 3LL, 7LL}) {
        for (int i = 0; i < 300; ++i) {
            const auto q = jump_within(g, center, rho, rng);
            EXPECT_TRUE(g.contains(q));
            EXPECT_LE(grid::manhattan(center, q), rho);
        }
    }
}

TEST(Dense, JumpZeroIsIdentity) {
    const auto g = grid::Grid2D::square(10);
    rng::Rng rng{11};
    EXPECT_EQ(jump_within(g, {3, 4}, 0, rng), (grid::Point{3, 4}));
}

TEST(Dense, JumpClampsAtBoundary) {
    const auto g = grid::Grid2D::square(10);
    rng::Rng rng{12};
    for (int i = 0; i < 300; ++i) {
        const auto q = jump_within(g, {0, 0}, 5, rng);
        EXPECT_TRUE(g.contains(q));
    }
}

TEST(Dense, CompletesInDenseRegime) {
    DenseConfig cfg;
    cfg.side = 16;   // n = 256
    cfg.k = 128;     // k = n/2
    cfg.R = 3;
    cfg.rho = 1;
    cfg.seed = 13;
    const auto result = run_dense_broadcast(cfg, 1000000);
    EXPECT_TRUE(result.completed);
    EXPECT_GE(result.broadcast_time, 0);
}

TEST(Dense, LargerExchangeRadiusIsFaster) {
    DenseConfig cfg;
    cfg.side = 24;
    cfg.k = 288;  // n/2
    cfg.rho = 1;
    double small_total = 0.0;
    double large_total = 0.0;
    constexpr int kReps = 8;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        cfg.seed = seed;
        cfg.R = 2;
        small_total += static_cast<double>(run_dense_broadcast(cfg, 1000000).broadcast_time);
        cfg.R = 8;
        large_total += static_cast<double>(run_dense_broadcast(cfg, 1000000).broadcast_time);
    }
    EXPECT_LT(large_total, small_total);
}

// R = 0 with ρ = 0: nothing moves, and an agent hears the rumor only from
// a co-located sender. So the run completes at t = 0 iff every agent
// starts on the source's node; otherwise the cap must fire. The start
// positions come from the model's own ensemble construction (seeded
// Rng, lazy walk). Side 2 with k = 2 co-locates on some of these seeds
// and not on others, so both outcomes are exercised; side 1 always
// co-locates.
TEST(Dense, ZeroRadiusZeroJumpStalls) {
    int colocated_runs = 0;
    int stalled_runs = 0;
    const struct {
        grid::Coord side;
        std::int32_t k;
    } shapes[] = {{10, 4}, {2, 2}, {1, 3}};
    for (const auto& shape : shapes) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            DenseConfig cfg;
            cfg.side = shape.side;
            cfg.k = shape.k;
            cfg.R = 0;
            cfg.rho = 0;
            cfg.seed = seed;
            const auto g = grid::Grid2D::square(cfg.side);
            rng::Rng rng{cfg.seed};
            const walk::AgentEnsemble start{g, cfg.k, rng, walk::WalkKind::kLazyPaper};
            const auto pos = start.positions();
            const bool colocated =
                std::all_of(pos.begin(), pos.end(), [&](grid::Point p) { return p == pos[0]; });
            const auto result = run_dense_broadcast(cfg, 50);
            EXPECT_EQ(result.completed, colocated) << "side " << cfg.side << " seed " << seed;
            EXPECT_EQ(result.broadcast_time, colocated ? 0 : -1)
                << "side " << cfg.side << " seed " << seed;
            if (shape.side == 1) {
                EXPECT_TRUE(colocated);
            }
            ++(colocated ? colocated_runs : stalled_runs);
        }
    }
    EXPECT_GT(colocated_runs, 12);  // side 1 and at least one side-2 seed
    EXPECT_GT(stalled_runs, 0);
}

// The dense exchange against an O(k²) reference written from the model's
// definition: the same ensemble construction and per-agent jump_within
// draws, then every agent informed at the start of the round informs each
// agent within L1 distance R. The exchange draws no randomness, so the two
// RNG streams stay in step and every run must agree exactly. R = INT64_MAX
// checks that the radius is clamped before any coordinate arithmetic.
DenseResult run_dense_reference(const DenseConfig& cfg, std::int64_t max_steps) {
    const auto g = grid::Grid2D::square(cfg.side);
    rng::Rng rng{cfg.seed};
    const walk::AgentEnsemble start{g, cfg.k, rng, walk::WalkKind::kLazyPaper};
    std::vector<grid::Point> pos(start.positions().begin(), start.positions().end());
    const auto k = pos.size();
    std::vector<std::uint8_t> informed(k, 0);
    informed[static_cast<std::size_t>(cfg.source)] = 1;
    const auto exchange = [&] {
        const auto senders = informed;
        for (std::size_t a = 0; a < k; ++a) {
            for (std::size_t b = 0; b < k; ++b) {
                if (senders[b] != 0 && grid::manhattan(pos[a], pos[b]) <= cfg.R) informed[a] = 1;
            }
        }
        return static_cast<std::size_t>(std::count(informed.begin(), informed.end(), 1)) == k;
    };
    bool complete = exchange();
    std::int64_t t = 0;
    while (!complete && t < max_steps) {
        ++t;
        for (auto& p : pos) p = jump_within(g, p, cfg.rho, rng);
        complete = exchange();
    }
    return {.completed = complete, .broadcast_time = complete ? t : -1};
}

TEST(Dense, ExchangeMatchesQuadraticReference) {
    for (const grid::Coord side : {1, 2, 3, 7, 16}) {
        const std::int32_t half = std::max(1, side * side / 2);
        for (const std::int32_t k : {1, 2, 5, half}) {
            for (const std::int64_t R : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
                                         std::int64_t{5}, std::int64_t{2} * side,
                                         std::numeric_limits<std::int64_t>::max()}) {
                for (const std::int64_t rho : {0, 1, 3}) {
                    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
                        DenseConfig cfg;
                        cfg.side = side;
                        cfg.k = k;
                        cfg.R = R;
                        cfg.rho = rho;
                        cfg.seed = seed;
                        const std::int64_t cap = 40;
                        const auto fast = run_dense_broadcast(cfg, cap);
                        const auto slow = run_dense_reference(cfg, cap);
                        EXPECT_EQ(fast.completed, slow.completed)
                            << "side " << side << " k " << k << " R " << R << " rho " << rho
                            << " seed " << seed;
                        EXPECT_EQ(fast.broadcast_time, slow.broadcast_time)
                            << "side " << side << " k " << k << " R " << R << " rho " << rho
                            << " seed " << seed;
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace smn::models
