// engine_property_test.cpp — parameterized property sweep of the
// dissemination engine across the configuration space: every run must
// satisfy the model's structural invariants regardless of parameters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/broadcast.hpp"
#include "core/engine.hpp"
#include "smn.hpp"  // umbrella header compiles cleanly (checked here)

namespace smn::core {
namespace {

struct SweepParam {
    grid::Coord side;
    std::int32_t k;
    std::int64_t radius;
    walk::WalkKind walk;
    Mobility mobility;
    std::uint64_t seed;
};

void PrintTo(const SweepParam& p, std::ostream* os) {
    *os << "side" << p.side << "_k" << p.k << "_r" << p.radius << "_w"
        << static_cast<int>(p.walk) << "_m" << static_cast<int>(p.mobility) << "_s" << p.seed;
}

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
    return ::testing::PrintToString(info.param);
}

class EngineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweep, StructuralInvariantsHold) {
    const auto& p = GetParam();
    EngineConfig cfg;
    cfg.side = p.side;
    cfg.k = p.k;
    cfg.radius = p.radius;
    cfg.walk = p.walk;
    cfg.mobility = p.mobility;
    cfg.seed = p.seed;

    BroadcastProcess process{cfg};

    const auto& g = process.grid();
    std::int32_t prev_informed = process.rumor().informed_count();
    EXPECT_GE(prev_informed, 1);  // source always informed

    const std::int64_t budget = 100000;
    graph::DisjointSets dsu{0};
    while (!process.complete() && process.time() < budget) {
        // Positions before the step (for the at-most-one-move check).
        std::vector<grid::Point> before(process.agents().positions().begin(),
                                        process.agents().positions().end());
        process.step();

        // (1) All agents on-grid, moved by at most one grid step.
        for (std::int32_t a = 0; a < p.k; ++a) {
            const auto pos = process.agents().position(a);
            EXPECT_TRUE(g.contains(pos));
            EXPECT_LE(grid::manhattan(before[static_cast<std::size_t>(a)], pos), 1);
        }
        // (2) Knowledge is monotone.
        const auto informed = process.rumor().informed_count();
        EXPECT_GE(informed, prev_informed);
        EXPECT_LE(informed, p.k);
        prev_informed = informed;
        // (3) Component exchange is exhaustive: agents sharing a component
        // of G_t(r) (the reference builder's, from the positions alone) with
        // an informed agent must be informed *after* the exchange.
        graph::VisibilityGraphBuilder::build_naive(process.agents().positions(), cfg.radius,
                                                   cfg.metric, dsu);
        for (std::int32_t a = 0; a < p.k; ++a) {
            for (std::int32_t b = 0; b < p.k; ++b) {
                if (process.rumor().is_informed(a) && dsu.same(a, b)) {
                    EXPECT_TRUE(process.rumor().is_informed(b))
                        << "component flooding missed agent " << b;
                }
            }
        }
    }

    // (4) On completion every informed_time is set consistently.
    if (process.complete()) {
        for (std::int32_t a = 0; a < p.k; ++a) {
            const auto t = process.rumor().informed_time(a);
            EXPECT_GE(t, 0);
            EXPECT_LE(t, process.time());
        }
        // (5) The informed count last seen by (2) is consistent with completion.
        EXPECT_EQ(prev_informed, p.k);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, EngineSweep,
    ::testing::Values(
        // Minimal edge shapes.
        SweepParam{1, 1, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 1},
        SweepParam{1, 3, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 2},
        SweepParam{2, 2, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 3},
        SweepParam{2, 2, 0, walk::WalkKind::kLazyPaper, Mobility::kInformedOnly, 4},
        // k = 2 (the sparsest interesting system).
        SweepParam{12, 2, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 5},
        SweepParam{12, 2, 3, walk::WalkKind::kLazyHalf, Mobility::kAllMove, 6},
        // Dense-ish small grids.
        SweepParam{6, 20, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 7},
        SweepParam{6, 20, 1, walk::WalkKind::kLazyPaper, Mobility::kInformedOnly, 8},
        // Mid-size, all kernels and mobilities, radii across regimes.
        SweepParam{16, 8, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 9},
        SweepParam{16, 8, 2, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 10},
        SweepParam{16, 8, 6, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 11},
        SweepParam{16, 8, 30, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 12},
        SweepParam{16, 8, 0, walk::WalkKind::kLazyHalf, Mobility::kAllMove, 13},
        SweepParam{16, 8, 1, walk::WalkKind::kSimple, Mobility::kAllMove, 14},
        SweepParam{16, 8, 0, walk::WalkKind::kLazyPaper, Mobility::kInformedOnly, 15},
        SweepParam{16, 8, 2, walk::WalkKind::kLazyHalf, Mobility::kInformedOnly, 16},
        // Rectangular coverage via non-square k/n ratios.
        SweepParam{24, 3, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 17},
        SweepParam{24, 48, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 18}),
    param_name);

}  // namespace
}  // namespace smn::core
