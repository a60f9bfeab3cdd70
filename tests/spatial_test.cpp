// spatial_test.cpp — the stamped co-location table and the standalone
// models' flood over it, including randomized equivalence against
// brute-force references.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "grid/grid.hpp"
#include "models/colocation.hpp"
#include "rng/rng.hpp"
#include "spatial/colocation_table.hpp"
#include "walk/ensemble.hpp"

namespace smn::spatial {
namespace {

using grid::Grid2D;
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

}  // namespace
}  // namespace smn::spatial
