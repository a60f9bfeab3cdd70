// core_test.cpp — rumor state, engine semantics, recorders, broadcast
// driver, bounds formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/bounds.hpp"
#include "core/broadcast.hpp"
#include "core/cell_observer.hpp"
#include "core/engine.hpp"
#include "core/observers.hpp"
#include "core/rumor.hpp"
#include "rng/rng.hpp"

namespace smn::core {
namespace {

// ------------------------------------------------------------- SingleRumor

TEST(SingleRumor, InitialState) {
    SingleRumor r{5, 2};
    EXPECT_EQ(r.agent_count(), 5);
    EXPECT_EQ(r.informed_count(), 1);
    EXPECT_TRUE(r.is_informed(2));
    EXPECT_FALSE(r.is_informed(0));
    EXPECT_EQ(r.informed_time(2), 0);
    EXPECT_EQ(r.informed_time(0), -1);
    EXPECT_FALSE(r.all_informed());
}

TEST(SingleRumor, InformIsIdempotentAndKeepsFirstTime) {
    SingleRumor r{3, 0};
    r.inform(1, 7);
    r.inform(1, 9);  // later inform must not overwrite
    EXPECT_EQ(r.informed_time(1), 7);
    EXPECT_EQ(r.informed_count(), 2);
    r.inform(2, 11);
    EXPECT_TRUE(r.all_informed());
}

TEST(SingleRumor, SingleAgentIsCompleteAtStart) {
    SingleRumor r{1, 0};
    EXPECT_TRUE(r.all_informed());
}

// --------------------------------------------------------- MultiRumorState

TEST(MultiRumor, OneRumorPerAgentInit) {
    const auto m = MultiRumorState::one_rumor_per_agent(5);
    EXPECT_EQ(m.agent_count(), 5);
    EXPECT_EQ(m.rumor_count(), 5);
    for (std::int32_t a = 0; a < 5; ++a) {
        for (std::int32_t r = 0; r < 5; ++r) {
            EXPECT_EQ(m.knows(a, r), a == r);
        }
        EXPECT_EQ(m.knowledge_count(a), 1);
        EXPECT_FALSE(m.knows_all(a));
    }
    EXPECT_FALSE(m.complete());
}

TEST(MultiRumor, WordManipulationAndCompletion) {
    auto m = MultiRumorState::one_rumor_per_agent(3);
    // Give everyone everything through the counting merge path.
    for (std::int32_t a = 0; a < 3; ++a) {
        const auto gained = m.merge_word(a, 0, 0b111);
        EXPECT_EQ(gained, 0b111u & ~(std::uint64_t{1} << a));
        EXPECT_EQ(m.merge_word(a, 0, 0b111), 0u);  // idempotent
    }
    EXPECT_TRUE(m.complete());
    for (std::int32_t a = 0; a < 3; ++a) EXPECT_TRUE(m.knows_all(a));
}

TEST(MultiRumor, IncrementalCountersMatchBitScans) {
    // merge_word's and merge_row's incremental counters must agree with a
    // popcount rescan of the raw words after every merge, and the two
    // paths must agree with each other: the same random rows go through
    // merge_word into one state and through merge_row into another. Rows
    // of up to 3 words (k <= 130) are all scalar tail; k = 256 is one
    // 4-word SIMD step and k = 300 one step plus a 1-word tail.
    rng::Rng rng{99};
    for (const std::int32_t k : {1, 63, 64, 65, 130, 256, 300}) {
        SCOPED_TRACE(k);
        auto by_word = MultiRumorState::one_rumor_per_agent(k);
        auto by_row = MultiRumorState::one_rumor_per_agent(k);
        const auto words = by_word.words_per_agent();
        const auto last_mask = k % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (k % 64)) - 1;
        std::vector<std::uint64_t> incoming(words);
        std::vector<std::uint64_t> word_gained(words);
        std::vector<std::uint64_t> row_gained(words, ~std::uint64_t{0});
        for (int round = 0; round < 200; ++round) {
            const auto a = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(k)));
            // Every 16th row is full, so agents complete along the way;
            // every 3rd has one nonzero word, so a gain can sit in the
            // SIMD body alone or in the tail alone; the rest have density
            // 1/4.
            const auto lone = static_cast<std::size_t>(rng.below(words));
            for (std::size_t w = 0; w < words; ++w) {
                incoming[w] = round % 16 == 0  ? ~std::uint64_t{0}
                              : round % 3 == 0 ? (w == lone ? rng.next_u64() : 0)
                                               : rng.next_u64() & rng.next_u64();
            }
            incoming.back() &= last_mask;
            std::int32_t word_total = 0;
            for (std::size_t w = 0; w < words; ++w) {
                const std::uint64_t before = by_word.word(a, w);
                word_gained[w] = by_word.merge_word(a, w, incoming[w]);
                EXPECT_EQ(word_gained[w], incoming[w] & ~before);
                word_total += std::popcount(word_gained[w]);
            }
            EXPECT_EQ(by_row.merge_row(a, incoming, row_gained), word_total);
            EXPECT_EQ(row_gained, word_gained);
            std::int32_t total = 0;
            for (std::size_t w = 0; w < words; ++w) {
                EXPECT_EQ(by_row.word(a, w), by_word.word(a, w));
                total += std::popcount(by_word.word(a, w));
            }
            EXPECT_EQ(by_word.knowledge_count(a), total);
            EXPECT_EQ(by_row.knowledge_count(a), total);
            EXPECT_EQ(by_row.done_agents(), by_word.done_agents());
            EXPECT_EQ(by_row.complete(), by_word.complete());
        }
        std::int32_t done = 0;
        for (std::int32_t a = 0; a < k; ++a) done += by_word.knows_all(a) ? 1 : 0;
        EXPECT_GT(done, 0);
        EXPECT_EQ(by_word.done_agents(), done);
        EXPECT_EQ(by_row.done_agents(), done);
        EXPECT_EQ(by_word.complete(), done == k);
        EXPECT_EQ(by_row.complete(), done == k);
    }
}

TEST(MultiRumor, ManyRumorsCrossWordBoundary) {
    // 130 rumors spans three 64-bit words.
    const auto m = MultiRumorState::one_rumor_per_agent(130);
    EXPECT_EQ(m.words_per_agent(), 3u);
    EXPECT_TRUE(m.knows(129, 129));
    EXPECT_FALSE(m.knows(129, 0));
    EXPECT_EQ(m.knowledge_count(129), 1);
}

TEST(MultiRumor, CustomOwners) {
    const std::vector<std::int32_t> owners{2, 2, 0};  // 3 rumors, 2 owned by agent 2
    const MultiRumorState m{3, owners};
    EXPECT_TRUE(m.knows(2, 0));
    EXPECT_TRUE(m.knows(2, 1));
    EXPECT_TRUE(m.knows(0, 2));
    EXPECT_EQ(m.knowledge_count(1), 0);
}

// ----------------------------------------------------------- engine basics

TEST(Engine, RejectsBadConfigs) {
    EngineConfig cfg;
    cfg.side = 0;
    EXPECT_THROW(BroadcastProcess{cfg}, std::invalid_argument);
    cfg = {};
    cfg.k = 0;
    EXPECT_THROW(BroadcastProcess{cfg}, std::invalid_argument);
    cfg = {};
    cfg.radius = -1;
    EXPECT_THROW(BroadcastProcess{cfg}, std::invalid_argument);
    cfg = {};
    cfg.source = 99;
    EXPECT_THROW(BroadcastProcess{cfg}, std::invalid_argument);
}

TEST(Engine, SingleAgentCompletesImmediately) {
    EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 1;
    BroadcastProcess p{cfg};
    EXPECT_TRUE(p.complete());
    EXPECT_EQ(p.run_until_complete(100), 0);
}

TEST(Engine, FullRadiusCompletesAtTimeZero) {
    // radius >= diameter: everyone is one component at t = 0.
    EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 10;
    cfg.radius = 14;  // diameter of 8×8 grid
    BroadcastProcess p{cfg};
    EXPECT_TRUE(p.complete());
    EXPECT_EQ(p.time(), 0);
}

TEST(Engine, InformedCountIsMonotone) {
    EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 12;
    cfg.seed = 5;
    BroadcastProcess p{cfg};
    std::int32_t prev = p.rumor().informed_count();
    for (int t = 0; t < 400 && !p.complete(); ++t) {
        p.step();
        const auto now = p.rumor().informed_count();
        EXPECT_GE(now, prev);  // rumor sets only grow
        prev = now;
    }
}

TEST(Engine, InformedTimesAreConsistent) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 8;
    cfg.seed = 6;
    BroadcastProcess p{cfg};
    const auto tb = p.run_until_complete(100000);
    ASSERT_TRUE(tb.has_value());
    std::int64_t max_time = 0;
    for (std::int32_t a = 0; a < cfg.k; ++a) {
        const auto t = p.rumor().informed_time(a);
        EXPECT_GE(t, 0);
        EXPECT_LE(t, *tb);
        max_time = std::max(max_time, t);
    }
    // T_B is exactly the last infection time.
    EXPECT_EQ(max_time, *tb);
    EXPECT_EQ(p.rumor().informed_time(cfg.source), 0);
}

TEST(Engine, BroadcastEventuallyCompletesSmallSystem) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
        EngineConfig cfg;
        cfg.side = 10;
        cfg.k = 5;
        cfg.seed = seed;
        BroadcastProcess p{cfg};
        EXPECT_TRUE(p.run_until_complete(500000).has_value()) << "seed " << seed;
    }
}

TEST(Engine, DeterministicGivenSeed) {
    EngineConfig cfg;
    cfg.side = 14;
    cfg.k = 9;
    cfg.seed = 77;
    BroadcastProcess a{cfg};
    BroadcastProcess b{cfg};
    const auto ta = a.run_until_complete(1000000);
    const auto tb = b.run_until_complete(1000000);
    ASSERT_TRUE(ta.has_value());
    EXPECT_EQ(*ta, *tb);
}

TEST(Engine, DifferentSeedsGiveDifferentRuns) {
    EngineConfig cfg;
    cfg.side = 14;
    cfg.k = 9;
    std::vector<std::int64_t> times;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        cfg.seed = seed;
        BroadcastProcess p{cfg};
        times.push_back(p.run_until_complete(1000000).value_or(-1));
    }
    // At least two distinct broadcast times across 8 seeds.
    std::sort(times.begin(), times.end());
    EXPECT_NE(times.front(), times.back());
}

TEST(Engine, RunUntilCompleteTimesOut) {
    EngineConfig cfg;
    cfg.side = 40;
    cfg.k = 2;
    cfg.seed = 8;
    BroadcastProcess p{cfg};
    if (!p.complete()) {
        EXPECT_FALSE(p.run_until_complete(1).has_value());
        EXPECT_EQ(p.time(), 1);
    }
}

TEST(Engine, SourceChoiceIsRespected) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 6;
    cfg.source = 4;
    BroadcastProcess p{cfg};
    EXPECT_TRUE(p.rumor().is_informed(4));
}

TEST(Engine, FrogModeFreezesUninformedAgents) {
    EngineConfig cfg;
    cfg.side = 20;
    cfg.k = 10;
    cfg.mobility = Mobility::kInformedOnly;
    cfg.seed = 9;
    BroadcastProcess p{cfg};
    // Snapshot initial positions of uninformed agents; they must stay put
    // until informed.
    std::vector<grid::Point> initial(p.agents().positions().begin(),
                                     p.agents().positions().end());
    for (int t = 0; t < 50 && !p.complete(); ++t) {
        p.step();
        for (std::int32_t a = 0; a < cfg.k; ++a) {
            if (!p.rumor().is_informed(a)) {
                EXPECT_EQ(p.agents().position(a), initial[static_cast<std::size_t>(a)]);
            }
        }
    }
}

TEST(Engine, FrogModeCompletes) {
    EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 6;
    cfg.mobility = Mobility::kInformedOnly;
    cfg.seed = 10;
    BroadcastProcess p{cfg};
    EXPECT_TRUE(p.run_until_complete(1000000).has_value());
}

TEST(Engine, MobilityNames) {
    EXPECT_STREQ(mobility_name(Mobility::kAllMove), "all-move");
    EXPECT_STREQ(mobility_name(Mobility::kInformedOnly), "frog");
}

// -------------------------------------------------------------- observers

TEST(Observers, InformedCountSeriesIsMonotoneAndEndsAtK) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 8;
    cfg.seed = 11;
    const auto result = run_broadcast(cfg, {.max_steps = 1000000, .record_series = true});
    ASSERT_TRUE(result.completed);
    const auto& series = result.informed_series;
    ASSERT_FALSE(series.empty());
    EXPECT_GE(series.front(), 1);
    EXPECT_EQ(series.back(), cfg.k);
    for (std::size_t i = 1; i < series.size(); ++i) EXPECT_GE(series[i], series[i - 1]);
    // Series has one entry per time step 0..T_B.
    EXPECT_EQ(static_cast<std::int64_t>(series.size()), result.broadcast_time + 1);
}

TEST(Observers, FrontierIsMonotone) {
    EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 10;
    cfg.seed = 12;
    BroadcastProcess p{cfg};
    FrontierObserver frontier;
    for (int t = 0; t < 200 && !p.complete(); ++t) {
        p.step();
        frontier.on_step(p.view());
    }
    const auto& series = frontier.series();
    ASSERT_FALSE(series.empty());
    for (std::size_t i = 1; i < series.size(); ++i) EXPECT_GE(series[i], series[i - 1]);
    EXPECT_LT(series.back(), cfg.side);
    EXPECT_GE(series.front(), 0);
}

// max_window_advance on a real run (bounds_property_test feeds synthetic
// series).
TEST(Observers, FrontierWindowAdvance) {
    FrontierObserver frontier;
    EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 12;
    cfg.seed = 13;
    BroadcastProcess p{cfg};
    for (int t = 0; t < 300 && !p.complete(); ++t) {
        p.step();
        frontier.on_step(p.view());
    }
    const auto adv5 = frontier.max_window_advance(5);
    const auto adv50 = frontier.max_window_advance(50);
    EXPECT_GE(adv50, adv5);       // longer windows dominate
    EXPECT_LE(adv5, 5 * 1 + 16);  // frontier jumps bounded by component spread
}

TEST(Observers, CoverageReachesAllNodesEventually) {
    EngineConfig cfg;
    cfg.side = 6;
    cfg.k = 6;
    cfg.seed = 14;
    BroadcastProcess p{cfg};
    CoverageObserver cov{p.grid()};
    for (int t = 0; t < 200000 && !cov.covered_all(); ++t) {
        p.step();
        cov.on_step(p.view());
    }
    EXPECT_TRUE(cov.covered_all());
    EXPECT_GE(cov.coverage_time(), 0);
    EXPECT_EQ(cov.covered_count(), p.grid().size());
}

TEST(Observers, CoverageCountIsMonotoneAndBounded) {
    EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 5;
    cfg.seed = 15;
    BroadcastProcess p{cfg};
    CoverageObserver cov{p.grid()};
    std::int64_t prev = 0;
    for (int t = 0; t < 300; ++t) {
        p.step();
        cov.on_step(p.view());
        EXPECT_GE(cov.covered_count(), prev);
        EXPECT_LE(cov.covered_count(), p.grid().size());
        prev = cov.covered_count();
    }
}

// The recorders only read the process: an engine whose state feeds all
// three of them after every step, through T_B and 300 saturated steps
// beyond, walks exactly like an unobserved twin.
TEST(Observers, RecordingNeverPerturbsTheRun) {
    EngineConfig cfg;
    cfg.side = 16;
    cfg.k = 12;
    cfg.radius = 1;
    cfg.seed = 20;
    BroadcastProcess observed{cfg};
    BroadcastProcess twin{cfg};
    ASSERT_FALSE(observed.complete());
    FrontierObserver frontier;
    CoverageObserver coverage{observed.grid()};
    CellReachObserver cells{observed.grid(), 4};
    const auto record = [&] {
        const auto view = observed.view();
        frontier.on_step(view);
        coverage.on_step(view);
        cells.on_step(view);
    };
    record();
    std::int64_t tb_observed = -1;
    std::int64_t tb_twin = -1;
    while (tb_observed < 0 || observed.time() < tb_observed + 300) {
        ASSERT_LT(observed.time(), 1000000);
        observed.step();
        twin.step();
        record();
        ASSERT_TRUE(std::ranges::equal(observed.agents().positions(), twin.agents().positions()))
            << "t = " << observed.time();
        if (tb_observed < 0 && observed.complete()) tb_observed = observed.time();
        if (tb_twin < 0 && twin.complete()) tb_twin = twin.time();
    }
    EXPECT_EQ(tb_observed, tb_twin);
    EXPECT_EQ(static_cast<std::int64_t>(frontier.series().size()), observed.time() + 1);
}

// ------------------------------------------------------- broadcast driver

TEST(Broadcast, DefaultCapIsGenerous) {
    EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 8;
    cfg.seed = 17;
    const auto result = run_broadcast(cfg);
    EXPECT_TRUE(result.completed);
    EXPECT_GE(result.broadcast_time, 0);
    EXPECT_EQ(result.steps_run, result.broadcast_time);
}

TEST(Broadcast, RespectsExplicitCap) {
    EngineConfig cfg;
    cfg.side = 60;
    cfg.k = 2;
    cfg.seed = 18;
    const auto result = run_broadcast(cfg, {.max_steps = 3});
    if (!result.completed) {
        EXPECT_EQ(result.broadcast_time, -1);
        EXPECT_LE(result.steps_run, 3);
    }
}

TEST(Broadcast, SeriesAndPlainAgreeOnBroadcastTime) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 6;
    cfg.seed = 19;
    const auto plain = run_broadcast(cfg, {.max_steps = 1000000});
    const auto with_series = run_broadcast(cfg, {.max_steps = 1000000, .record_series = true});
    EXPECT_EQ(plain.broadcast_time, with_series.broadcast_time);
}

// ------------------------------------------------------------------ bounds

TEST(Bounds, BroadcastScale) {
    EXPECT_DOUBLE_EQ(bounds::broadcast_scale(10000, 100), 1000.0);
    EXPECT_DOUBLE_EQ(bounds::broadcast_scale(4096, 64), 512.0);
}

TEST(Bounds, LowerBoundBelowUpperScale) {
    for (const std::int64_t n : {1 << 10, 1 << 14, 1 << 18}) {
        for (const std::int64_t k : {4, 64, 1024}) {
            EXPECT_LT(bounds::broadcast_lower_bound_scale(n, k), bounds::broadcast_scale(n, k));
        }
    }
}

TEST(Bounds, WkkScaleDecaysFasterInK) {
    // [28] claims ~1/k, the paper proves ~1/√k: at large k the claimed
    // bound must sit far below the true scale.
    const std::int64_t n = 1 << 16;
    EXPECT_LT(bounds::wkk_claimed_scale(n, 1024) / bounds::broadcast_scale(n, 1024),
              bounds::wkk_claimed_scale(n, 4) / bounds::broadcast_scale(n, 4));
}

TEST(Bounds, CellSideClampedToGrid) {
    // Tiny k and huge polylog factor would exceed the grid side; must clamp.
    const auto side = bounds::cell_side(256, 2, 0.1);
    EXPECT_LE(side, 16.0);
    EXPECT_GE(side, 1.0);
}

TEST(Bounds, DefaultMaxStepsDominatesTypicalBroadcast) {
    // The cap must exceed the expected T_B scale by a wide margin.
    for (const std::int64_t n : {256, 4096, 65536}) {
        for (const std::int64_t k : {2, 16, 256}) {
            EXPECT_GT(static_cast<double>(bounds::default_max_steps(n, k)),
                      8.0 * bounds::broadcast_scale(n, k));
        }
    }
}

TEST(Bounds, HorizonMatchesPaperFormula) {
    const double n = 4096.0;
    const double ln = std::log(n);
    EXPECT_DOUBLE_EQ(bounds::horizon(4096), 8.0 * n * ln * ln);
}

TEST(Bounds, CoverTimeScaleHasBothTerms) {
    // For small k the n log²n / k term dominates; for huge k the n log n
    // floor remains.
    const std::int64_t n = 1 << 16;
    EXPECT_GT(bounds::cover_time_scale(n, 1), bounds::cover_time_scale(n, 1 << 20) * 2);
    const double floor_term =
        static_cast<double>(n) * bounds::log_floor(static_cast<double>(n));
    EXPECT_GE(bounds::cover_time_scale(n, 1 << 30), floor_term);
}

}  // namespace
}  // namespace smn::core
