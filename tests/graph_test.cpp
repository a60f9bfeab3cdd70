// graph_test.cpp — DSU, visibility components vs brute force, component
// statistics, percolation thresholds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/dsu.hpp"
#include "graph/percolation.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace smn::graph {
namespace {

using grid::Grid2D;
using grid::Metric;
using grid::Point;

// --------------------------------------------------------------------- DSU

TEST(Dsu, StartsAsSingletons) {
    DisjointSets dsu{5};
    EXPECT_EQ(dsu.set_count(), 5u);
    for (std::int32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(dsu.find(i), i);
        EXPECT_EQ(dsu.size_of(i), 1);
    }
}

TEST(Dsu, UniteMergesAndCounts) {
    DisjointSets dsu{6};
    EXPECT_TRUE(dsu.unite(0, 1));
    EXPECT_TRUE(dsu.unite(2, 3));
    EXPECT_FALSE(dsu.unite(1, 0));  // already same
    EXPECT_EQ(dsu.set_count(), 4u);
    EXPECT_TRUE(dsu.same(0, 1));
    EXPECT_FALSE(dsu.same(0, 2));
    EXPECT_TRUE(dsu.unite(1, 3));
    EXPECT_TRUE(dsu.same(0, 2));
    EXPECT_EQ(dsu.size_of(0), 4);
    EXPECT_EQ(dsu.set_count(), 3u);
}

TEST(Dsu, TransitivityChain) {
    DisjointSets dsu{100};
    for (std::int32_t i = 0; i + 1 < 100; ++i) dsu.unite(i, i + 1);
    EXPECT_EQ(dsu.set_count(), 1u);
    EXPECT_EQ(dsu.size_of(0), 100);
    EXPECT_TRUE(dsu.same(0, 99));
}

TEST(Dsu, ResetRestoresSingletons) {
    DisjointSets dsu{4};
    dsu.unite(0, 1);
    dsu.reset(6);
    EXPECT_EQ(dsu.element_count(), 6u);
    EXPECT_EQ(dsu.set_count(), 6u);
    EXPECT_FALSE(dsu.same(0, 1));
}

TEST(Dsu, SizesSumToElementCount) {
    DisjointSets dsu{50};
    rng::Rng rng{1};
    for (int i = 0; i < 40; ++i) {
        dsu.unite(static_cast<std::int32_t>(rng.below(50)),
                  static_cast<std::int32_t>(rng.below(50)));
    }
    std::set<std::int32_t> roots;
    std::int64_t total = 0;
    for (std::int32_t a = 0; a < 50; ++a) {
        const auto root = dsu.find(a);
        if (roots.insert(root).second) total += dsu.size_of(root);
    }
    EXPECT_EQ(total, 50);
    EXPECT_EQ(roots.size(), dsu.set_count());
}

// -------------------------------------------------------- visibility graph

// Canonical component signature for partition equality tests.
std::vector<std::int32_t> canonical(DisjointSets& dsu) {
    std::vector<std::int32_t> label(dsu.element_count());
    std::vector<std::int32_t> first(dsu.element_count(), -1);
    std::int32_t next = 0;
    for (std::size_t a = 0; a < label.size(); ++a) {
        const auto root = static_cast<std::size_t>(dsu.find(static_cast<std::int32_t>(a)));
        if (first[root] < 0) first[root] = next++;
        label[a] = first[root];
    }
    return label;
}

TEST(Visibility, RadiusZeroGroupsColocation) {
    const auto g = Grid2D::square(8);
    VisibilityGraphBuilder builder{g, 0};
    DisjointSets dsu{0};
    const std::vector<Point> pos{{1, 1}, {1, 1}, {2, 2}, {1, 1}};
    builder.build(pos, dsu);
    EXPECT_TRUE(dsu.same(0, 1));
    EXPECT_TRUE(dsu.same(0, 3));
    EXPECT_FALSE(dsu.same(0, 2));
    EXPECT_EQ(dsu.set_count(), 2u);
}

TEST(Visibility, ChainTransitivityAcrossRadius) {
    // Agents in a line, spacing = r: the whole line is one component even
    // though the endpoints are far apart — the multi-hop flooding the
    // paper's model allows within one step.
    const auto g = Grid2D::square(40);
    VisibilityGraphBuilder builder{g, 3};
    DisjointSets dsu{0};
    std::vector<Point> pos;
    for (int i = 0; i < 10; ++i) pos.push_back({static_cast<grid::Coord>(3 * i), 0});
    builder.build(pos, dsu);
    EXPECT_EQ(dsu.set_count(), 1u);
    EXPECT_TRUE(dsu.same(0, 9));
}

TEST(Visibility, GapBreaksComponent) {
    const auto g = Grid2D::square(40);
    VisibilityGraphBuilder builder{g, 3};
    DisjointSets dsu{0};
    const std::vector<Point> pos{{0, 0}, {3, 0}, {10, 0}, {13, 0}};
    builder.build(pos, dsu);
    EXPECT_EQ(dsu.set_count(), 2u);
    EXPECT_TRUE(dsu.same(0, 1));
    EXPECT_TRUE(dsu.same(2, 3));
    EXPECT_FALSE(dsu.same(1, 2));
}

struct VisSweepParam {
    grid::Coord side;
    int agents;
    std::int64_t radius;
    Metric metric;
};

void PrintTo(const VisSweepParam& p, std::ostream* os) {
    *os << "side" << p.side << "_k" << p.agents << "_r" << p.radius << "_"
        << grid::metric_name(p.metric);
}

class VisibilitySweep : public ::testing::TestWithParam<VisSweepParam> {};

TEST_P(VisibilitySweep, MatchesNaiveComponents) {
    const auto param = GetParam();
    const auto g = Grid2D::square(param.side);
    rng::Rng rng{static_cast<std::uint64_t>(param.side * 31 + param.agents)};
    VisibilityGraphBuilder builder{g, param.radius, param.metric};
    DisjointSets fast{0};
    DisjointSets slow{0};
    for (int round = 0; round < 15; ++round) {
        std::vector<Point> pos;
        for (int i = 0; i < param.agents; ++i) {
            pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        }
        builder.build(pos, fast);
        VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
        EXPECT_EQ(canonical(fast), canonical(slow))
            << "side " << param.side << " agents " << param.agents << " r " << param.radius;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomConfigs, VisibilitySweep,
    ::testing::Values(VisSweepParam{12, 8, 0, Metric::kManhattan},
                      VisSweepParam{12, 30, 0, Metric::kManhattan},
                      VisSweepParam{16, 10, 1, Metric::kManhattan},
                      VisSweepParam{16, 25, 2, Metric::kManhattan},
                      VisSweepParam{24, 40, 3, Metric::kManhattan},
                      VisSweepParam{24, 40, 3, Metric::kChebyshev},
                      VisSweepParam{24, 40, 3, Metric::kEuclidean},
                      VisSweepParam{32, 64, 5, Metric::kManhattan},
                      VisSweepParam{8, 50, 2, Metric::kManhattan},  // dense small grid
                      VisSweepParam{48, 6, 12, Metric::kManhattan}  // huge radius
                      ));

TEST(Visibility, BuilderIsReusableAcrossSteps) {
    const auto g = Grid2D::square(16);
    VisibilityGraphBuilder builder{g, 2};
    DisjointSets dsu{0};
    rng::Rng rng{7};
    std::vector<Point> pos;
    for (int i = 0; i < 20; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    for (int step = 0; step < 25; ++step) {
        for (auto& p : pos) p = walk::step(g, p, rng);
        builder.build(pos, dsu);
        DisjointSets ref{0};
        VisibilityGraphBuilder::build_naive(pos, 2, Metric::kManhattan, ref);
        EXPECT_EQ(canonical(dsu), canonical(ref));
    }
}

// The engine's step protocol: one build() at t = 0, then a walk step and
// a fresh build() every step. Must match the brute-force reference at
// every step, for the radius grid r ∈ {0, 1, 2, 5} under all three
// metrics.
struct IncrementalVisParam {
    std::int64_t radius;
    Metric metric;
};

void PrintTo(const IncrementalVisParam& p, std::ostream* os) {
    *os << "r" << p.radius << "_" << grid::metric_name(p.metric);
}

class VisibilityIncremental : public ::testing::TestWithParam<IncrementalVisParam> {};

TEST_P(VisibilityIncremental, MoveSequencesMatchNaiveComponents) {
    const auto param = GetParam();
    const auto g = Grid2D::square(18);
    rng::Rng rng{static_cast<std::uint64_t>(900 + param.radius)};
    VisibilityGraphBuilder builder{g, param.radius, param.metric};
    DisjointSets fast{0};
    DisjointSets slow{0};
    std::vector<Point> pos;
    for (int i = 0; i < 28; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    builder.build(pos, fast);
    VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
    EXPECT_EQ(canonical(fast), canonical(slow));
    for (int step = 0; step < 40; ++step) {
        for (auto& p : pos) p = walk::step(g, p, rng);
        builder.build(pos, fast);
        VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
        EXPECT_EQ(canonical(fast), canonical(slow))
            << "step " << step << " r " << param.radius << " metric "
            << grid::metric_name(param.metric);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndMetrics, VisibilityIncremental,
    ::testing::Values(IncrementalVisParam{0, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kManhattan},
                      IncrementalVisParam{2, Metric::kManhattan},
                      IncrementalVisParam{5, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kChebyshev},
                      IncrementalVisParam{2, Metric::kChebyshev},
                      IncrementalVisParam{5, Metric::kChebyshev},
                      IncrementalVisParam{1, Metric::kEuclidean},
                      IncrementalVisParam{2, Metric::kEuclidean},
                      IncrementalVisParam{5, Metric::kEuclidean}));

// Adversarial move sequences: single-cell steps, teleports, and frog-style
// partial rounds where most agents stay frozen. After every round the
// partition must equal build_naive's, for the full radius grid
// r ∈ {0, 1, 2, 5} under all three metrics.
class VisibilityPartialMoves : public ::testing::TestWithParam<IncrementalVisParam> {};

TEST_P(VisibilityPartialMoves, RandomMovesTeleportsAndPartialRoundsMatchNaive) {
    const auto param = GetParam();
    const auto g = Grid2D::square(20);
    rng::Rng rng{static_cast<std::uint64_t>(4400 + param.radius * 7 +
                                            static_cast<int>(param.metric))};
    VisibilityGraphBuilder builder{g, param.radius, param.metric};
    DisjointSets fast{0};
    DisjointSets slow{0};
    std::vector<Point> pos;
    for (int i = 0; i < 36; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    builder.build(pos, fast);
    // Every pass scans each occupied node once.
    auto occupied = static_cast<std::int64_t>(std::set<Point>(pos.begin(), pos.end()).size());
    for (int round = 0; round < 60; ++round) {
        // Frog-style partial round: only a random subset moves (often a
        // small one).
        const auto movers = 1 + rng.below(round % 3 == 0 ? pos.size() : 4);
        for (std::uint64_t m = 0; m < movers; ++m) {
            const auto a = static_cast<std::int32_t>(rng.below(pos.size()));
            const auto from = pos[static_cast<std::size_t>(a)];
            Point to;
            if (rng.below(10) == 0) {
                to = walk::AgentEnsemble::random_node(g, rng);  // teleport
            } else {
                to = walk::step(g, from, rng);
            }
            pos[static_cast<std::size_t>(a)] = to;
        }
        builder.build(pos, fast);
        occupied += static_cast<std::int64_t>(std::set<Point>(pos.begin(), pos.end()).size());
        VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
        EXPECT_EQ(canonical(fast), canonical(slow))
            << "round " << round << " r " << param.radius << " metric "
            << grid::metric_name(param.metric);
    }
    EXPECT_EQ(builder.scan_stats().rescanned_units, param.radius >= 1 ? occupied : 0);
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndMetrics, VisibilityPartialMoves,
    ::testing::Values(IncrementalVisParam{0, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kManhattan},
                      IncrementalVisParam{2, Metric::kManhattan},
                      IncrementalVisParam{5, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kChebyshev},
                      IncrementalVisParam{2, Metric::kChebyshev},
                      IncrementalVisParam{5, Metric::kChebyshev},
                      IncrementalVisParam{1, Metric::kEuclidean},
                      IncrementalVisParam{2, Metric::kEuclidean},
                      IncrementalVisParam{5, Metric::kEuclidean}));

// index_stats().moves against a brute-force diff of consecutive passes'
// positions. k covers the 4-lane vector tally's tail (1, 3, 5), a whole
// number of vectors (4) and a long run (1027); rounds move every agent,
// a frog-style random subset, a few teleports, or none. The first pass,
// and the first after k changes (to a prefix of the old positions, half
// of them moved), only record the positions.
TEST(VisibilityIndexStats, MoveTallyMatchesBruteForceDiff) {
    const auto g = Grid2D::square(24);
    rng::Rng rng{909};
    VisibilityGraphBuilder builder{g, 2};
    DisjointSets dsu{0};
    std::int64_t expected = 0;
    std::vector<Point> pos;
    for (const std::size_t k : {1, 3, 4, 5, 1027, 5}) {
        std::vector<Point> next(k);
        for (std::size_t a = 0; a < k; ++a) {
            next[a] = a < pos.size() && a % 2 == 0 ? pos[a]
                                                   : walk::AgentEnsemble::random_node(g, rng);
        }
        pos = next;
        builder.build(pos, dsu);
        EXPECT_EQ(builder.index_stats().moves, expected) << "new k " << k;
        for (int round = 0; round < 16; ++round) {
            const auto before = pos;
            for (auto& p : pos) {
                switch (round % 4) {
                    case 0: p = walk::step(g, p, rng); break;
                    case 1:
                        if (rng.below(2) == 0) p = walk::step(g, p, rng);
                        break;
                    case 2:
                        if (rng.below(8) == 0) p = walk::AgentEnsemble::random_node(g, rng);
                        break;
                    default: break;
                }
            }
            for (std::size_t a = 0; a < k; ++a) expected += pos[a] != before[a] ? 1 : 0;
            builder.build(pos, dsu);
            EXPECT_EQ(builder.index_stats().moves, expected) << "k " << k << " round " << round;
        }
    }
    EXPECT_GT(expected, 1027);
}

// Nodes of one occupied node's forward half-neighbourhood on `g`: offsets
// (dx, dy) with dy > 0, or dy = 0 and dx > 0, within r under `metric`
// that fit inside the grid.
std::int64_t forward_window_nodes(const Grid2D& g, std::int64_t r, Metric metric) {
    std::int64_t count = 0;
    for (grid::Coord dy = 0; dy < g.height(); ++dy) {
        for (grid::Coord dx = static_cast<grid::Coord>(1 - g.width()); dx < g.width(); ++dx) {
            if ((dy > 0 || dx > 0) && grid::within({0, 0}, {dx, dy}, r, metric)) ++count;
        }
    }
    return count;
}

// Unordered pairs of distinct nodes within r, O(nodes²).
std::int64_t in_range_node_pairs(const std::set<Point>& nodes, std::int64_t r, Metric metric) {
    std::int64_t pairs = 0;
    for (auto i = nodes.begin(); i != nodes.end(); ++i) {
        for (auto j = std::next(i); j != nodes.end(); ++j) {
            pairs += grid::within(*i, *j, r, metric) ? 1 : 0;
        }
    }
    return pairs;
}

// Builds `pos` and checks the pass against build_naive: the partition;
// linked(), which must list exactly the members of the naive partition's
// components of size >= 2, each once; and at r >= 1 the pass's counters,
// which must count the occupied nodes (occupied_units, rescanned_units),
// the node pairs its windows read (pairs_tested) and the in-range pairs
// of occupied nodes (pairs_survived).
void expect_build_matches_naive(VisibilityGraphBuilder& builder, const Grid2D& g,
                                std::span<const Point> pos, const std::string& where) {
    DisjointSets fast{0};
    DisjointSets slow{0};
    const auto before = builder.scan_stats();
    builder.build(pos, fast);
    VisibilityGraphBuilder::build_naive(pos, builder.radius(), builder.metric(), slow);
    ASSERT_EQ(canonical(fast), canonical(slow)) << where;
    std::vector<std::int32_t> expected;
    for (std::int32_t a = 0; a < static_cast<std::int32_t>(pos.size()); ++a) {
        if (slow.size_of(a) >= 2) expected.push_back(a);
    }
    std::vector<std::int32_t> listed(builder.linked().begin(), builder.linked().end());
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(std::adjacent_find(listed.begin(), listed.end()), listed.end())
        << "an agent is listed twice; " << where;
    EXPECT_EQ(listed, expected) << where;
    if (builder.radius() == 0) return;
    const std::set<Point> nodes(pos.begin(), pos.end());
    const auto occupied = static_cast<std::int64_t>(nodes.size());
    const auto& after = builder.scan_stats();
    EXPECT_EQ(builder.occupied_units(), occupied) << where;
    EXPECT_EQ(after.passes - before.passes, 1) << where;
    EXPECT_EQ(after.rescanned_units - before.rescanned_units, occupied) << where;
    EXPECT_EQ(after.pairs_tested - before.pairs_tested,
              occupied * forward_window_nodes(g, builder.radius(), builder.metric()))
        << where;
    EXPECT_EQ(after.pairs_survived - before.pairs_survived,
              in_range_node_pairs(nodes, builder.radius(), builder.metric()))
        << where;
}

// The node pass against build_naive across the occupancy range the paper
// cares about and its edges: far below the percolation point (r_c = 4r),
// at it (r_c = r), dense (r_c = r/2), every agent inside one r × r box,
// agents pinned to the four borders, and agents stacked on one node. The
// radii reach past one 57-bit bitmap load (a row window is 2r + 1 bits
// wide, so r >= 29 splits it) and past the grid diameter (r = 200); the
// sides include 1 and 2, widths around 64 bits, sides r does not divide,
// and sides at or below r. Each side runs 40 consecutive builds on one
// builder, the agent count alternating, so every bit a pass sets must be
// cleared before the next.
enum class Occupancy { kSparse, kCritical, kDense, kOneCell, kBorders, kStacked };

struct CellListParam {
    std::int64_t radius;
    Metric metric;
    Occupancy occupancy;
};

void PrintTo(const CellListParam& p, std::ostream* os) {
    *os << "r" << p.radius << "_" << grid::metric_name(p.metric) << "_occupancy"
        << static_cast<int>(p.occupancy);
}

class VisibilityCellList : public ::testing::TestWithParam<CellListParam> {};

TEST_P(VisibilityCellList, MatchesNaiveComponents) {
    const auto param = GetParam();
    const auto r = param.radius;
    rng::Rng rng{static_cast<std::uint64_t>(7000 + r * 31 + static_cast<int>(param.metric) * 7 +
                                            static_cast<int>(param.occupancy))};
    const std::set<grid::Coord> sides{
        1, 2, 23, 32, 63, 64, 65, 100,
        static_cast<grid::Coord>(std::max<std::int64_t>(1, r - 1)), static_cast<grid::Coord>(r)};
    for (const auto side : sides) {
        const auto g = Grid2D::square(side);
        const auto n = std::int64_t{side} * side;
        // k = n / r_c² for the target percolation radius r_c.
        const auto k_for = [&](double rc) {
            return static_cast<int>(std::clamp<double>(static_cast<double>(n) / (rc * rc), 2, 400));
        };
        int k = 30;
        switch (param.occupancy) {
            case Occupancy::kSparse: k = k_for(4.0 * static_cast<double>(r)); break;
            case Occupancy::kCritical: k = k_for(static_cast<double>(r)); break;
            case Occupancy::kDense: k = k_for(static_cast<double>(r) / 2.0); break;
            default: break;
        }
        VisibilityGraphBuilder builder{g, r, param.metric};
        const auto random_coord = [&] {
            return static_cast<grid::Coord>(rng.below(static_cast<std::uint64_t>(side)));
        };
        for (int round = 0; round < 40; ++round) {
            // Alternate the agent count so the builder also sees k shrink.
            const int agents = round % 2 == 0 ? k : std::max(1, k / 2);
            std::vector<Point> pos;
            if (param.occupancy == Occupancy::kOneCell) {
                const auto cells = static_cast<std::uint64_t>((side + r - 1) / r);
                const auto cx = static_cast<grid::Coord>(rng.below(cells) * r);
                const auto cy = static_cast<grid::Coord>(rng.below(cells) * r);
                const auto span_x = static_cast<std::uint64_t>(
                    std::min<std::int64_t>(r, side - cx));
                const auto span_y = static_cast<std::uint64_t>(
                    std::min<std::int64_t>(r, side - cy));
                for (int i = 0; i < agents; ++i) {
                    pos.push_back({static_cast<grid::Coord>(cx + rng.below(span_x)),
                                   static_cast<grid::Coord>(cy + rng.below(span_y))});
                }
            } else if (param.occupancy == Occupancy::kBorders) {
                const auto last = static_cast<grid::Coord>(side - 1);
                for (int i = 0; i < agents; ++i) {
                    const auto t = random_coord();
                    switch (i % 4) {
                        case 0: pos.push_back({0, t}); break;
                        case 1: pos.push_back({last, t}); break;
                        case 2: pos.push_back({t, 0}); break;
                        default: pos.push_back({t, last}); break;
                    }
                }
            } else if (param.occupancy == Occupancy::kStacked) {
                // Two of every three agents on one node, the rest anywhere.
                const Point stack{random_coord(), random_coord()};
                for (int i = 0; i < agents; ++i) {
                    pos.push_back(i % 3 == 2 ? walk::AgentEnsemble::random_node(g, rng) : stack);
                }
            } else {
                for (int i = 0; i < agents; ++i) {
                    pos.push_back(walk::AgentEnsemble::random_node(g, rng));
                }
            }
            std::ostringstream where;
            where << "side " << side << " k " << agents << " round " << round;
            expect_build_matches_naive(builder, g, pos, where.str());
        }
    }
}

std::vector<CellListParam> cell_list_params() {
    std::vector<CellListParam> params;
    for (const std::int64_t r : {1, 2, 3, 5, 28, 29, 31, 32, 33, 63, 64, 65, 200}) {
        for (const auto metric : {Metric::kManhattan, Metric::kChebyshev, Metric::kEuclidean}) {
            for (const auto occupancy :
                 {Occupancy::kSparse, Occupancy::kCritical, Occupancy::kDense,
                  Occupancy::kOneCell, Occupancy::kBorders, Occupancy::kStacked}) {
                params.push_back({r, metric, occupancy});
            }
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(RadiiMetricsOccupancies, VisibilityCellList,
                         ::testing::ValuesIn(cell_list_params()));

// The node pass's lanes and word blocks against build_naive. The pass reads
// 4 occupied nodes per step and chunk_nodes() nodes per word block, so the
// occupied-node counts cover every residue mod 4, from one partial group to
// past two whole blocks. The window counts run from 2 per node (r = 1) to
// 404 (r = 100 under L∞, which leaves one group per block) and 3300 (side
// 300, whose block outgrows the usual size). Each count is placed on
// distinct random nodes, a third of them with a second agent, so the
// occupied count is exact; one builder runs every count in turn.
struct LaneParam {
    std::int64_t radius;
    Metric metric;
    grid::Coord side;
};

void PrintTo(const LaneParam& p, std::ostream* os) {
    *os << "r" << p.radius << "_" << grid::metric_name(p.metric) << "_side" << p.side;
}

class VisibilityNodePassLanes : public ::testing::TestWithParam<LaneParam> {};

TEST_P(VisibilityNodePassLanes, EveryResidueAndTwoBlocksMatchNaive) {
    const auto [r, metric, side] = GetParam();
    const auto g = Grid2D::square(side);
    VisibilityGraphBuilder builder{g, r, metric};
    const auto chunk = builder.chunk_nodes();
    ASSERT_GT(chunk, 0u);
    ASSERT_EQ(chunk % 4, 0u);
    std::vector<std::size_t> counts{1, 2, 3, 4, 5, 6, 7, 8};
    for (const auto blocks : {chunk, 2 * chunk}) {
        for (std::size_t d = 0; d < 4; ++d) counts.push_back(blocks - 1 + d);
    }
    ASSERT_LE(counts.back(), static_cast<std::size_t>(g.size()));
    rng::Rng rng{static_cast<std::uint64_t>(9500 + r * 13 + static_cast<int>(metric) + side)};
    std::vector<grid::NodeId> nodes(static_cast<std::size_t>(g.size()));
    std::iota(nodes.begin(), nodes.end(), grid::NodeId{0});
    for (const auto count : counts) {
        // The first `count` nodes of a fresh shuffle.
        for (std::size_t i = 0; i < count; ++i) {
            const auto j = i + static_cast<std::size_t>(rng.below(nodes.size() - i));
            std::swap(nodes[i], nodes[j]);
        }
        std::vector<Point> pos;
        for (std::size_t i = 0; i < count; ++i) pos.push_back(g.point_of(nodes[i]));
        for (std::size_t i = 0; i < count; i += 3) {
            pos.push_back(g.point_of(nodes[static_cast<std::size_t>(rng.below(count))]));
        }
        std::ostringstream where;
        where << "occupied " << count << " chunk " << chunk;
        expect_build_matches_naive(builder, g, pos, where.str());
        ASSERT_EQ(builder.occupied_units(), static_cast<std::int64_t>(count)) << where.str();
    }
    EXPECT_GT(counts.back(), 2 * chunk);
}

INSTANTIATE_TEST_SUITE_P(
    WindowCounts, VisibilityNodePassLanes,
    ::testing::Values(LaneParam{1, Metric::kManhattan, 64}, LaneParam{2, Metric::kManhattan, 64},
                      LaneParam{2, Metric::kEuclidean, 48}, LaneParam{3, Metric::kChebyshev, 48},
                      LaneParam{40, Metric::kManhattan, 128},
                      LaneParam{100, Metric::kChebyshev, 128},
                      LaneParam{300, Metric::kChebyshev, 300}));

// linked() against build_naive: after every build it must list exactly
// the members of the naive partition's components of size >= 2, each once.
// One builder per occupancy runs 40 consecutive builds over walking agents
// (one round with fewer agents), so flags left by the previous build, bits
// left in the occupancy bitmap and co-location slots stamped by earlier
// passes are exercised. Occupancies: far below r_c, at r_c, dense, every
// agent on one node (side 1), and r >= side.
enum class LinkedOccupancy { kSparse, kCritical, kDense, kOneNode, kRadiusCoversGrid };

struct LinkedParam {
    std::int64_t radius;
    Metric metric;
};

void PrintTo(const LinkedParam& p, std::ostream* os) {
    *os << "r" << p.radius << "_" << grid::metric_name(p.metric);
}

class VisibilityLinked : public ::testing::TestWithParam<LinkedParam> {};

TEST_P(VisibilityLinked, ListsExactlyTheNonSingletonMembers) {
    const auto [r, metric] = GetParam();
    rng::Rng rng{static_cast<std::uint64_t>(9100 + r * 17 + static_cast<int>(metric))};
    const auto reach = static_cast<double>(std::max<std::int64_t>(r, 1));
    for (const auto occupancy : {LinkedOccupancy::kSparse, LinkedOccupancy::kCritical,
                                 LinkedOccupancy::kDense, LinkedOccupancy::kOneNode,
                                 LinkedOccupancy::kRadiusCoversGrid}) {
        grid::Coord side = 32;
        if (occupancy == LinkedOccupancy::kOneNode) side = 1;
        if (occupancy == LinkedOccupancy::kRadiusCoversGrid) {
            side = static_cast<grid::Coord>(std::max<std::int64_t>(r, 1));
        }
        const auto g = Grid2D::square(side);
        const auto n = static_cast<double>(g.size());
        // k = n / r_c² for the target percolation radius r_c.
        const auto k_for = [&](double rc) {
            return static_cast<int>(std::clamp<double>(n / (rc * rc), 2, 400));
        };
        int k = 40;
        switch (occupancy) {
            case LinkedOccupancy::kSparse: k = k_for(4.0 * reach); break;
            case LinkedOccupancy::kCritical: k = k_for(reach); break;
            case LinkedOccupancy::kDense: k = k_for(reach / 2.0); break;
            default: break;
        }
        std::vector<Point> pos;
        for (int i = 0; i < k; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        VisibilityGraphBuilder builder{g, r, metric};
        for (int round = 0; round < 40; ++round) {
            for (auto& p : pos) p = walk::step(g, p, rng, walk::WalkKind::kLazyPaper);
            const auto agents = round == 3 ? std::max(1, k / 2) : k;
            std::ostringstream where;
            where << "occupancy " << static_cast<int>(occupancy) << " side " << side << " k "
                  << agents << " round " << round;
            expect_build_matches_naive(
                builder, g, {pos.data(), static_cast<std::size_t>(agents)}, where.str());
        }
    }
}

std::vector<LinkedParam> linked_params() {
    std::vector<LinkedParam> params;
    for (const std::int64_t r : {0, 1, 2, 5, 28, 29, 31, 32, 33, 63, 64, 65, 200}) {
        for (const auto metric : {Metric::kManhattan, Metric::kChebyshev, Metric::kEuclidean}) {
            params.push_back({r, metric});
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(RadiiMetrics, VisibilityLinked, ::testing::ValuesIn(linked_params()));

// The r = 0 pass over a table whose 8-bit stamp wraps every 255 passes:
// the builds before the wrap, at it and after it (600 over walking agents,
// every seventh with half of them) must give build_naive's partition and
// link exactly the members of its non-singleton components. Its first-claim
// hook must name each occupied node once, with the node's lowest-index agent.
TEST(VisibilityColocation, NarrowStampWrapMatchesNaive) {
    const auto g = Grid2D::square(32);
    spatial::BasicColocationTable<std::uint8_t> table{g.size()};
    rng::Rng rng{9300};
    std::vector<Point> pos;
    for (int i = 0; i < 64; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    DisjointSets fast{0};
    DisjointSets slow{0};
    for (int build = 1; build <= 600; ++build) {
        for (auto& p : pos) p = walk::step(g, p, rng, walk::WalkKind::kLazyPaper);
        const auto agents = build % 7 == 0 ? pos.size() / 2 : pos.size();
        const std::span<const Point> now{pos.data(), agents};
        fast.reset(agents);
        std::set<std::int32_t> linked;
        std::vector<std::pair<grid::NodeId, std::int32_t>> firsts;
        colocation_pass(
            table, now, fast, [&](Point p) { return g.node_id(p); },
            [&](grid::NodeId node, std::int32_t a) { firsts.emplace_back(node, a); },
            [&](std::int32_t a) { linked.insert(a); });
        ASSERT_EQ(table.stamp(), (build - 1) % 255 + 1);
        std::vector<std::pair<grid::NodeId, std::int32_t>> expected_firsts;
        std::set<grid::NodeId> seen;
        for (std::int32_t a = 0; a < static_cast<std::int32_t>(agents); ++a) {
            const auto node = g.node_id(now[static_cast<std::size_t>(a)]);
            if (seen.insert(node).second) expected_firsts.emplace_back(node, a);
        }
        ASSERT_EQ(firsts, expected_firsts) << "build " << build;
        VisibilityGraphBuilder::build_naive(now, 0, Metric::kManhattan, slow);
        ASSERT_EQ(canonical(fast), canonical(slow)) << "build " << build;
        std::set<std::int32_t> expected;
        for (std::int32_t a = 0; a < static_cast<std::int32_t>(agents); ++a) {
            if (slow.size_of(a) >= 2) expected.insert(a);
        }
        ASSERT_EQ(linked, expected) << "build " << build;
    }
}

// ---------------------------------------------------------- ComponentStats

TEST(Stats, SingletonPartition) {
    DisjointSets dsu{5};
    const auto s = component_stats(dsu);
    EXPECT_EQ(s.component_count, 5);
    EXPECT_EQ(s.max_size, 1);
    EXPECT_DOUBLE_EQ(s.mean_size, 1.0);
    EXPECT_DOUBLE_EQ(s.largest_fraction, 0.2);
    EXPECT_EQ(s.singletons(), 5);
}

TEST(Stats, MixedPartition) {
    DisjointSets dsu{7};
    dsu.unite(0, 1);
    dsu.unite(1, 2);
    dsu.unite(3, 4);
    const auto s = component_stats(dsu);
    EXPECT_EQ(s.component_count, 4);  // {0,1,2} {3,4} {5} {6}
    EXPECT_EQ(s.max_size, 3);
    EXPECT_NEAR(s.mean_size, 7.0 / 4.0, 1e-12);
    EXPECT_NEAR(s.largest_fraction, 3.0 / 7.0, 1e-12);
    EXPECT_EQ(s.singletons(), 2);
    ASSERT_EQ(s.size_histogram.size(), 4u);
    EXPECT_EQ(s.size_histogram[1], 2);
    EXPECT_EQ(s.size_histogram[2], 1);
    EXPECT_EQ(s.size_histogram[3], 1);
}

TEST(Stats, HistogramCountsTimesSizesSumToK) {
    DisjointSets dsu{30};
    rng::Rng rng{3};
    for (int i = 0; i < 20; ++i) {
        dsu.unite(static_cast<std::int32_t>(rng.below(30)),
                  static_cast<std::int32_t>(rng.below(30)));
    }
    const auto s = component_stats(dsu);
    std::int64_t total = 0;
    for (std::size_t size = 1; size < s.size_histogram.size(); ++size) {
        total += static_cast<std::int64_t>(size) * s.size_histogram[size];
    }
    EXPECT_EQ(total, 30);
}

// ------------------------------------------------------------- percolation

TEST(Percolation, RadiusFormula) {
    EXPECT_DOUBLE_EQ(percolation_radius(10000, 100), 10.0);
    EXPECT_DOUBLE_EQ(percolation_radius(4096, 64), 8.0);
}

TEST(Percolation, GammaIsBelowRc) {
    // γ = r_c / (2e³): the island scale sits far below the percolation
    // point, and the lower-bound radius is γ/4.
    for (std::int64_t n : {1 << 12, 1 << 16}) {
        for (std::int64_t k : {16, 64, 256}) {
            const double rc = percolation_radius(n, k);
            const double gamma = island_gamma(n, k);
            const double rlb = lower_bound_radius(n, k);
            EXPECT_LT(gamma, rc);
            EXPECT_NEAR(gamma / rc, 1.0 / (2.0 * std::exp(3.0)), 1e-12);
            EXPECT_NEAR(rlb, gamma / 4.0, 1e-12);
        }
    }
}

TEST(Percolation, RegimeClassification) {
    const std::int64_t n = 10000;
    const std::int64_t k = 100;  // r_c = 10
    EXPECT_EQ(classify_regime(n, k, 0), Regime::kSubcritical);
    EXPECT_EQ(classify_regime(n, k, 5), Regime::kSubcritical);
    EXPECT_EQ(classify_regime(n, k, 10), Regime::kNearCritical);
    EXPECT_EQ(classify_regime(n, k, 20), Regime::kSupercritical);
    EXPECT_STREQ(regime_name(Regime::kSubcritical), "subcritical");
}

// Empirical percolation contrast: far below r_c components are small; far
// above r_c a giant component holds most agents.
TEST(Percolation, OrderParameterJumpsAcrossThreshold) {
    const auto g = Grid2D::square(64);  // n = 4096
    const std::int64_t k = 256;         // r_c = 4
    rng::Rng rng{11};
    double below = 0.0;
    double above = 0.0;
    constexpr int kReps = 10;
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<Point> pos;
        for (std::int64_t i = 0; i < k; ++i) {
            pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        }
        DisjointSets dsu{0};
        VisibilityGraphBuilder low{g, 1};
        low.build(pos, dsu);
        below += component_stats(dsu).largest_fraction;
        VisibilityGraphBuilder high{g, 12};  // 3 r_c
        high.build(pos, dsu);
        above += component_stats(dsu).largest_fraction;
    }
    below /= kReps;
    above /= kReps;
    EXPECT_LT(below, 0.2);
    EXPECT_GT(above, 0.8);
    EXPECT_GT(above, 3.0 * below);
}

}  // namespace
}  // namespace smn::graph
