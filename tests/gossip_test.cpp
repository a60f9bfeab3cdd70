// gossip_test.cpp — multi-rumor dissemination (Corollary 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/broadcast.hpp"
#include "core/gossip.hpp"

namespace smn::core {
namespace {

TEST(Gossip, SingleAgentIsCompleteAtStart) {
    EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 1;
    GossipProcess p{cfg};
    EXPECT_TRUE(p.complete());
    EXPECT_EQ(p.run_until_complete(10), 0);
    EXPECT_EQ(p.rumor_broadcast_time(0), 0);
}

// Both engines validate through core::validate(), so each bad field is
// reported by the config check before any member is built.
TEST(Gossip, RejectsBadConfigsLikeBroadcast) {
    EngineConfig bad_k;
    bad_k.k = 0;
    EngineConfig bad_side;
    bad_side.side = 0;
    EngineConfig bad_radius;
    bad_radius.radius = -1;
    for (const auto& cfg : {bad_k, bad_side, bad_radius}) {
        for (const bool gossip : {true, false}) {
            try {
                if (gossip) {
                    GossipProcess p{cfg};
                } else {
                    BroadcastProcess p{cfg};
                }
                ADD_FAILURE() << "no throw for k " << cfg.k << " side " << cfg.side
                              << " radius " << cfg.radius;
            } catch (const std::invalid_argument& e) {
                EXPECT_EQ(std::string{e.what()}.rfind("EngineConfig:", 0), 0u) << e.what();
            }
        }
    }
}

// "Only informed agents move" has no meaning when knowledge is a rumor
// set, so gossip refuses the Frog mobility instead of running all-move.
TEST(Gossip, RejectsFrogMobility) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 8;
    cfg.mobility = Mobility::kInformedOnly;
    try {
        GossipProcess p{cfg};
        ADD_FAILURE() << "no throw for frog gossip";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()}.rfind("EngineConfig:", 0), 0u) << e.what();
    }
    EXPECT_NO_THROW(BroadcastProcess{cfg});
}

TEST(Gossip, KnownPairsStartAtKAndGrowMonotonically) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 8;
    cfg.seed = 3;
    GossipProcess p{cfg};
    auto prev = p.known_pairs();
    EXPECT_GE(prev, cfg.k);  // k own rumors, possibly more after t=0 exchange
    for (int t = 0; t < 300 && !p.complete(); ++t) {
        p.step();
        EXPECT_GE(p.known_pairs(), prev);
        prev = p.known_pairs();
    }
}

TEST(Gossip, CompletesAndReachesKSquaredPairs) {
    EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 6;
    cfg.seed = 4;
    GossipProcess p{cfg};
    const auto tg = p.run_until_complete(1000000);
    ASSERT_TRUE(tg.has_value());
    EXPECT_EQ(p.known_pairs(), std::int64_t{6} * 6);
    for (std::int32_t a = 0; a < 6; ++a) EXPECT_TRUE(p.rumors().knows_all(a));
}

TEST(Gossip, PerRumorTimesAreConsistentWithTg) {
    EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 6;
    cfg.seed = 5;
    GossipProcess p{cfg};
    const auto tg = p.run_until_complete(1000000);
    ASSERT_TRUE(tg.has_value());
    std::int64_t max_tb = -1;
    for (std::int32_t r = 0; r < 6; ++r) {
        const auto tb = p.rumor_broadcast_time(r);
        EXPECT_GE(tb, 0);
        EXPECT_LE(tb, *tg);
        max_tb = std::max(max_tb, tb);
    }
    // The slowest rumor defines the gossip time.
    EXPECT_EQ(max_tb, *tg);
}

TEST(Gossip, RumorSetsOnlyGrow) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 7;
    cfg.seed = 6;
    GossipProcess p{cfg};
    std::vector<std::int32_t> prev_counts(7, 0);
    for (std::int32_t a = 0; a < 7; ++a) prev_counts[static_cast<std::size_t>(a)] = p.rumors().knowledge_count(a);
    for (int t = 0; t < 200 && !p.complete(); ++t) {
        p.step();
        for (std::int32_t a = 0; a < 7; ++a) {
            const auto now = p.rumors().knowledge_count(a);
            EXPECT_GE(now, prev_counts[static_cast<std::size_t>(a)]);
            prev_counts[static_cast<std::size_t>(a)] = now;
        }
    }
}

TEST(Gossip, DeterministicGivenSeed) {
    EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 5;
    cfg.seed = 7;
    GossipProcess a{cfg};
    GossipProcess b{cfg};
    const auto ta = a.run_until_complete(1000000);
    const auto tb = b.run_until_complete(1000000);
    ASSERT_TRUE(ta.has_value());
    EXPECT_EQ(*ta, *tb);
}

TEST(Gossip, RunGossipDriverPopulatesSummary) {
    EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 5;
    cfg.seed = 8;
    const auto result = run_gossip(cfg, 1000000);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.max_rumor_broadcast_time, result.gossip_time);
    EXPECT_LE(result.min_rumor_broadcast_time, result.max_rumor_broadcast_time);
    EXPECT_GE(result.mean_rumor_broadcast_time,
              static_cast<double>(result.min_rumor_broadcast_time));
    EXPECT_LE(result.mean_rumor_broadcast_time,
              static_cast<double>(result.max_rumor_broadcast_time));
}

TEST(Gossip, FullRadiusCompletesImmediately) {
    EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 6;
    cfg.radius = 14;  // diameter
    GossipProcess p{cfg};
    EXPECT_TRUE(p.complete());
    EXPECT_EQ(p.time(), 0);
}

// Gossip must take at least as long as the slowest single broadcast from
// the same seed — in fact T_G equals the max per-rumor broadcast time by
// definition; here we sanity check T_G ≥ typical single-rumor T_B by
// comparing to a single broadcast with the same parameters (statistical,
// not pathwise: gossip floods k rumors simultaneously).
TEST(Gossip, GossipTimeAtLeastOneBroadcastTypically) {
    EngineConfig cfg;
    cfg.side = 14;
    cfg.k = 8;
    int gossip_wins = 0;
    constexpr int kReps = 10;
    for (std::uint64_t seed = 1; seed <= kReps; ++seed) {
        cfg.seed = seed;
        const auto g = run_gossip(cfg, 1000000);
        const auto b = run_broadcast(cfg, {.max_steps = 1000000});
        ASSERT_TRUE(g.completed && b.completed);
        gossip_wins += (g.gossip_time >= b.broadcast_time);
    }
    // Gossip includes a max over k rumors; it should rarely be faster than
    // one broadcast with matched parameters.
    EXPECT_GE(gossip_wins, kReps / 2);
}

}  // namespace
}  // namespace smn::core
