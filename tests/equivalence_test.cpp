// equivalence_test.cpp — pathwise equivalences between processes.
//
// The strongest correctness check in the suite: BroadcastProcess and
// GossipProcess consume randomness identically (k placements, then k moves
// per step in agent order), so for the SAME seed they generate the same
// agent trajectories. Since component flooding treats each rumor
// independently, the gossip process's per-rumor broadcast time for rumor r
// must EXACTLY equal the broadcast time of a BroadcastProcess with
// source = r on the same seed. This cross-validates the two independently
// written exchange kernels (bitset OR vs boolean flood) against each other.
#include <gtest/gtest.h>

#include "core/broadcast.hpp"
#include "core/engine.hpp"
#include "core/gossip.hpp"

namespace smn::core {
namespace {

struct EquivParam {
    grid::Coord side;
    std::int32_t k;
    std::int64_t radius;
    std::uint64_t seed;
};

void PrintTo(const EquivParam& p, std::ostream* os) {
    *os << "side" << p.side << "_k" << p.k << "_r" << p.radius << "_s" << p.seed;
}

class GossipBroadcastEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(GossipBroadcastEquivalence, PerRumorTimesMatchSingleBroadcasts) {
    const auto param = GetParam();
    EngineConfig cfg;
    cfg.side = param.side;
    cfg.k = param.k;
    cfg.radius = param.radius;
    cfg.seed = param.seed;

    GossipProcess gossip{cfg};
    const auto tg = gossip.run_until_complete(1 << 26);
    ASSERT_TRUE(tg.has_value());

    for (std::int32_t r = 0; r < param.k; ++r) {
        cfg.source = r;
        BroadcastProcess broadcast{cfg};
        const auto tb = broadcast.run_until_complete(1 << 26);
        ASSERT_TRUE(tb.has_value());
        EXPECT_EQ(gossip.rumor_broadcast_time(r), *tb)
            << "rumor " << r << " diverged from the matching single broadcast";
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, GossipBroadcastEquivalence,
    ::testing::Values(EquivParam{10, 4, 0, 1}, EquivParam{10, 4, 0, 2},
                      EquivParam{12, 6, 0, 3}, EquivParam{12, 6, 2, 4},
                      EquivParam{16, 8, 0, 5}, EquivParam{16, 8, 3, 6},
                      EquivParam{8, 12, 1, 7}, EquivParam{20, 5, 0, 8}));

// Broadcast with k = all agents in one component at t = 0 equals gossip
// completion at t = 0 under the same condition.
TEST(Equivalence, FullRadiusBothImmediate) {
    EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 7;
    cfg.radius = 14;
    cfg.seed = 11;
    BroadcastProcess b{cfg};
    GossipProcess g{cfg};
    EXPECT_TRUE(b.complete());
    EXPECT_TRUE(g.complete());
}

// The informed-count series of a broadcast equals the per-agent knows()
// count of the matching rumor inside gossip, spot-checked at completion.
TEST(Equivalence, InformedSetsMatchAtCompletion) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 5;
    cfg.radius = 0;
    cfg.seed = 12;
    cfg.source = 2;
    GossipProcess gossip{cfg};
    ASSERT_TRUE(gossip.run_until_complete(1 << 26).has_value());
    BroadcastProcess broadcast{cfg};
    ASSERT_TRUE(broadcast.run_until_complete(1 << 26).has_value());
    // Every agent must have learned rumor 2 in gossip no later than the
    // matching broadcast informed it (they are equal; ≤ is the invariant
    // robust to tie-breaking, equality checked via the completion times in
    // the parameterized test above).
    for (std::int32_t a = 0; a < cfg.k; ++a) {
        EXPECT_TRUE(gossip.rumors().knows(a, 2));
        EXPECT_TRUE(broadcast.rumor().is_informed(a));
    }
}

// Frog model with every agent informed at t = 0 behaves like the dynamic
// model (all agents move): with k = 1 both are trivially complete.
TEST(Equivalence, SingleAgentAllModelsImmediate) {
    EngineConfig cfg;
    cfg.side = 6;
    cfg.k = 1;
    for (const auto mobility : {Mobility::kAllMove, Mobility::kInformedOnly}) {
        cfg.mobility = mobility;
        BroadcastProcess p{cfg};
        EXPECT_TRUE(p.complete());
    }
}

}  // namespace
}  // namespace smn::core
