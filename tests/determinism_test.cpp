// determinism_test.cpp — the step-loop overhaul's "zero behavioral drift"
// contract (ISSUE 3).
//
// The hot path (per-step sorted cell list, half-neighborhood pair
// enumeration, SoA ensemble with block-drawn RNG) must reproduce the seed
// implementation bit-for-bit: same engine-word consumption per agent per
// step, same component partitions, hence identical T_B and rumor
// trajectories for every seed. Three layers of evidence:
//
//  1. Golden values: T_B / steps / an FNV-1a hash of the informed-count
//     series captured by running the PRE-PR seed build on a matrix of
//     configs (both mobilities, all walk kinds, all metrics, r = 0..5),
//     reproduced both by run_broadcast and by interleaved step() drives.
//  2. A from-first-principles reference loop (scalar walk::step draws +
//     O(k²) build_naive + flood) compared pathwise against the engine.
//  3. smn_lab run_point records byte-identical across --threads values for
//     the real scenarios, including the Frog model and step_throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/broadcast.hpp"
#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "core/rumor.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/writer.hpp"
#include "graph/visibility.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace smn::core {
namespace {

std::uint64_t fnv1a_series(const std::vector<std::int32_t>& series) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto v : series) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 0x100000001B3ULL;
    }
    return h;
}

// ------------------------------------------------------------ golden runs

struct GoldenRun {
    grid::Coord side;
    std::int32_t k;
    std::int64_t radius;
    unsigned metric;
    unsigned walk;
    unsigned mobility;
    std::uint64_t seed;
    std::int64_t broadcast_time;
    std::int64_t steps_run;
    std::uint64_t series_hash;
};

class GoldenBroadcast : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(GoldenBroadcast, ReproducesSeedImplementationBitForBit) {
    const auto g = GetParam();
    EngineConfig cfg;
    cfg.side = g.side;
    cfg.k = g.k;
    cfg.radius = g.radius;
    cfg.metric = static_cast<grid::Metric>(g.metric);
    cfg.walk = static_cast<walk::WalkKind>(g.walk);
    cfg.mobility = static_cast<Mobility>(g.mobility);
    cfg.seed = g.seed;
    BroadcastOptions options;
    options.record_series = true;
    const auto res = run_broadcast(cfg, options);
    EXPECT_EQ(res.broadcast_time, g.broadcast_time);
    EXPECT_EQ(res.steps_run, g.steps_run);
    EXPECT_EQ(fnv1a_series(res.informed_series), g.series_hash);
}

// All trajectory state lives in the process object: pausing one engine
// at the halfway point, running a second engine of the same config to
// completion, then resuming the first must reproduce the golden T_B and
// informed-series hash on both. Scratch buffers or RNG state shared
// between instances (statics, thread_locals) would make the interleaved
// runs diverge.
TEST_P(GoldenBroadcast, InterleavedProcessesAreBitIdentical) {
    const auto g = GetParam();
    EngineConfig cfg;
    cfg.side = g.side;
    cfg.k = g.k;
    cfg.radius = g.radius;
    cfg.metric = static_cast<grid::Metric>(g.metric);
    cfg.walk = static_cast<walk::WalkKind>(g.walk);
    cfg.mobility = static_cast<Mobility>(g.mobility);
    cfg.seed = g.seed;

    const auto run_to_completion = [&](BroadcastProcess& process,
                                       std::vector<std::int32_t>& series) {
        while (!process.complete() && process.time() < g.steps_run + 100) {
            process.step();
            series.push_back(process.rumor().informed_count());
        }
    };

    BroadcastProcess paused{cfg};
    std::vector<std::int32_t> paused_series{paused.rumor().informed_count()};
    for (std::int64_t t = 0; t < g.broadcast_time / 2; ++t) {
        paused.step();
        paused_series.push_back(paused.rumor().informed_count());
    }

    BroadcastProcess other{cfg};
    std::vector<std::int32_t> other_series{other.rumor().informed_count()};
    run_to_completion(other, other_series);
    EXPECT_EQ(other.time(), g.broadcast_time);
    EXPECT_EQ(fnv1a_series(other_series), g.series_hash);

    ASSERT_EQ(paused.time(), g.broadcast_time / 2);
    run_to_completion(paused, paused_series);
    EXPECT_EQ(paused.time(), g.broadcast_time);
    EXPECT_EQ(fnv1a_series(paused_series), g.series_hash);
}

// Captured by running the pre-PR-3 seed implementation (full BucketIndex
// rebuild + symmetric scan + scalar walk kernel) on these exact configs.
// Field order: side, k, radius, metric, walk, mobility, seed, T_B,
// steps_run, FNV-1a(informed series).
INSTANTIATE_TEST_SUITE_P(
    SeedCapture, GoldenBroadcast,
    ::testing::Values(
        GoldenRun{16, 8, 0, 0, 0, 0, 1ULL, 321LL, 321LL, 0x657524F4D72449AULL},
        GoldenRun{16, 8, 0, 0, 0, 0, 2ULL, 361LL, 361LL, 0xD273A56761FB4AB7ULL},
        GoldenRun{24, 16, 3, 0, 0, 0, 1ULL, 114LL, 114LL, 0x4CC4B22ADAA8F1E1ULL},
        GoldenRun{24, 16, 3, 0, 0, 0, 5ULL, 248LL, 248LL, 0x88DF750E299E95D1ULL},
        GoldenRun{32, 64, 2, 0, 0, 0, 7ULL, 274LL, 274LL, 0x873442DF80AC2D85ULL},
        GoldenRun{20, 10, 1, 1, 0, 0, 3ULL, 315LL, 315LL, 0x179F44AB2AD41EEDULL},
        GoldenRun{20, 10, 2, 2, 0, 0, 4ULL, 344LL, 344LL, 0x504311BE844455E0ULL},
        GoldenRun{18, 9, 2, 0, 1, 0, 6ULL, 56LL, 56LL, 0x170E82FE94C89C2BULL},
        GoldenRun{18, 9, 2, 0, 2, 0, 8ULL, 141LL, 141LL, 0x10921832E41B548FULL},
        GoldenRun{16, 12, 2, 0, 0, 1, 1ULL, 73LL, 73LL, 0x6B80C1CFF070248AULL},
        GoldenRun{16, 12, 2, 0, 0, 1, 2ULL, 89LL, 89LL, 0xF22810F21A0FFB7BULL},
        GoldenRun{24, 16, 0, 0, 0, 1, 3ULL, 793LL, 793LL, 0xED69E68532A43C6DULL},
        GoldenRun{12, 20, 4, 0, 0, 1, 9ULL, 6LL, 6LL, 0x16E9DB7836D29652ULL},
        GoldenRun{40, 30, 5, 0, 0, 0, 10ULL, 342LL, 342LL, 0xAEF9DC559A56B9FFULL}));

TEST(GoldenGossip, ReproducesSeedImplementationBitForBit) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 6;
    cfg.radius = 2;
    cfg.seed = 4;
    auto res = run_gossip(cfg);
    EXPECT_EQ(res.gossip_time, 117);
    EXPECT_EQ(res.max_rumor_broadcast_time, 117);
    EXPECT_EQ(res.min_rumor_broadcast_time, 79);
    EXPECT_DOUBLE_EQ(res.mean_rumor_broadcast_time, 99.666666666666671);
    cfg.seed = 11;
    res = run_gossip(cfg);
    EXPECT_EQ(res.gossip_time, 108);
    EXPECT_EQ(res.max_rumor_broadcast_time, 108);
    EXPECT_EQ(res.min_rumor_broadcast_time, 50);
    EXPECT_DOUBLE_EQ(res.mean_rumor_broadcast_time, 88.666666666666671);
}

// Multi-word rumor bitsets (k > 64) at r = 0 and at r = 1 (Chebyshev),
// captured from the build before the exchange went sparse.
TEST(GoldenGossip, MultiWordRumorSetsReproduceBitForBit) {
    const struct {
        grid::Coord side;
        std::int32_t k;
        std::int64_t radius;
        grid::Metric metric;
        std::uint64_t seed;
        std::int64_t tg;
        std::int64_t min_tb;
        double mean_tb;
    } goldens[] = {
        {32, 130, 0, grid::Metric::kManhattan, 1, 408, 235, 322.19230769230768},
        {32, 130, 0, grid::Metric::kManhattan, 2, 396, 205, 285.76153846153846},
        {24, 70, 1, grid::Metric::kChebyshev, 3, 125, 63, 77.671428571428578},
        {24, 70, 1, grid::Metric::kChebyshev, 4, 176, 76, 84.128571428571433},
    };
    for (const auto& golden : goldens) {
        EngineConfig cfg;
        cfg.side = golden.side;
        cfg.k = golden.k;
        cfg.radius = golden.radius;
        cfg.metric = golden.metric;
        cfg.seed = golden.seed;
        const auto res = run_gossip(cfg);
        EXPECT_EQ(res.gossip_time, golden.tg) << "seed " << golden.seed;
        EXPECT_EQ(res.max_rumor_broadcast_time, golden.tg) << "seed " << golden.seed;
        EXPECT_EQ(res.min_rumor_broadcast_time, golden.min_tb) << "seed " << golden.seed;
        EXPECT_DOUBLE_EQ(res.mean_rumor_broadcast_time, golden.mean_tb) << "seed " << golden.seed;
    }
}

// ------------------------------------------------- reference-loop pathwise

// Re-implements the engine from first principles: scalar per-agent
// walk::step draws (the seed's RNG consumption pattern), the O(k²)
// build_naive, and two-pass component flooding. The engine's informed
// series and T_B must match this loop exactly, step by step.
struct Reference {
    std::vector<std::int32_t> informed_series;
    std::int64_t broadcast_time{-1};
};

Reference run_reference(const EngineConfig& cfg, std::int64_t max_steps) {
    const auto g = grid::Grid2D::square(cfg.side);
    rng::Rng rng{cfg.seed};
    std::vector<grid::Point> pos;
    for (std::int32_t i = 0; i < cfg.k; ++i) {
        pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    }
    std::vector<std::uint8_t> informed(static_cast<std::size_t>(cfg.k), 0);
    informed[static_cast<std::size_t>(cfg.source)] = 1;
    graph::DisjointSets dsu{static_cast<std::size_t>(cfg.k)};
    std::vector<std::uint8_t> root_informed(static_cast<std::size_t>(cfg.k));

    const auto flood = [&] {
        std::fill(root_informed.begin(), root_informed.end(), std::uint8_t{0});
        for (std::int32_t a = 0; a < cfg.k; ++a) {
            if (informed[static_cast<std::size_t>(a)]) {
                root_informed[static_cast<std::size_t>(dsu.find(a))] = 1;
            }
        }
        std::int32_t count = 0;
        for (std::int32_t a = 0; a < cfg.k; ++a) {
            if (root_informed[static_cast<std::size_t>(dsu.find(a))]) {
                informed[static_cast<std::size_t>(a)] = 1;
            }
            count += informed[static_cast<std::size_t>(a)];
        }
        return count;
    };

    Reference ref;
    graph::VisibilityGraphBuilder::build_naive(pos, cfg.radius, cfg.metric, dsu);
    auto count = flood();
    ref.informed_series.push_back(count);
    for (std::int64_t t = 1; count < cfg.k && t <= max_steps; ++t) {
        if (cfg.mobility == Mobility::kAllMove) {
            for (auto& p : pos) p = walk::step(g, p, rng, cfg.walk);
        } else {
            const auto frozen = informed;  // informed *before* this motion
            for (std::size_t a = 0; a < pos.size(); ++a) {
                if (frozen[a]) pos[a] = walk::step(g, pos[a], rng, cfg.walk);
            }
        }
        graph::VisibilityGraphBuilder::build_naive(pos, cfg.radius, cfg.metric, dsu);
        count = flood();
        ref.informed_series.push_back(count);
        if (count == cfg.k) ref.broadcast_time = t;
    }
    if (count == cfg.k && ref.broadcast_time < 0) ref.broadcast_time = 0;
    return ref;
}

struct PathwiseParam {
    grid::Coord side;
    std::int32_t k;
    std::int64_t radius;
    Mobility mobility;
    walk::WalkKind walk;
    std::uint64_t seed;
};

class PathwiseEquivalence : public ::testing::TestWithParam<PathwiseParam> {};

TEST_P(PathwiseEquivalence, EngineMatchesFirstPrinciplesLoop) {
    const auto param = GetParam();
    EngineConfig cfg;
    cfg.side = param.side;
    cfg.k = param.k;
    cfg.radius = param.radius;
    cfg.mobility = param.mobility;
    cfg.walk = param.walk;
    cfg.seed = param.seed;

    BroadcastOptions options;
    options.max_steps = 5000;
    options.record_series = true;
    const auto engine = run_broadcast(cfg, options);
    const auto ref = run_reference(cfg, 5000);

    EXPECT_EQ(engine.broadcast_time, ref.broadcast_time);
    EXPECT_EQ(engine.informed_series, ref.informed_series);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PathwiseEquivalence,
    ::testing::Values(
        PathwiseParam{12, 6, 0, Mobility::kAllMove, walk::WalkKind::kLazyPaper, 21},
        PathwiseParam{12, 6, 2, Mobility::kAllMove, walk::WalkKind::kLazyPaper, 22},
        PathwiseParam{14, 10, 1, Mobility::kAllMove, walk::WalkKind::kSimple, 23},
        PathwiseParam{14, 10, 3, Mobility::kAllMove, walk::WalkKind::kLazyHalf, 24},
        PathwiseParam{12, 8, 2, Mobility::kInformedOnly, walk::WalkKind::kLazyPaper, 25},
        PathwiseParam{12, 8, 0, Mobility::kInformedOnly, walk::WalkKind::kLazyPaper, 26},
        PathwiseParam{8, 24, 0, Mobility::kInformedOnly, walk::WalkKind::kLazyHalf, 28},
        PathwiseParam{10, 14, 4, Mobility::kInformedOnly, walk::WalkKind::kSimple, 27}));

// The gossip engine against a first-principles loop: scalar walk::step
// draws, the O(k²) build_naive, and a dense O(k) exchange from public
// calls (OR every agent's rumor words into its root's slot, merge_word the
// union back into every agent). Every per-rumor broadcast time must match.
std::vector<std::int64_t> reference_rumor_times(const EngineConfig& cfg, std::int64_t max_steps) {
    const auto g = grid::Grid2D::square(cfg.side);
    rng::Rng rng{cfg.seed};
    std::vector<grid::Point> pos;
    for (std::int32_t i = 0; i < cfg.k; ++i) {
        pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    }
    const auto k = static_cast<std::size_t>(cfg.k);
    auto rumors = MultiRumorState::one_rumor_per_agent(cfg.k);
    const auto words = rumors.words_per_agent();
    std::vector<std::uint64_t> acc(k * words);
    std::vector<std::int32_t> known(k, 1);
    std::vector<std::int64_t> times(k, cfg.k == 1 ? 0 : -1);
    graph::DisjointSets dsu{k};
    const auto exchange = [&](std::int64_t t) {
        std::fill(acc.begin(), acc.end(), std::uint64_t{0});
        for (std::int32_t a = 0; a < cfg.k; ++a) {
            const auto root = static_cast<std::size_t>(dsu.find(a));
            for (std::size_t w = 0; w < words; ++w) acc[root * words + w] |= rumors.word(a, w);
        }
        for (std::int32_t a = 0; a < cfg.k; ++a) {
            const auto root = static_cast<std::size_t>(dsu.find(a));
            for (std::size_t w = 0; w < words; ++w) {
                for (auto gained = rumors.merge_word(a, w, acc[root * words + w]); gained != 0;
                     gained &= gained - 1) {
                    const auto r = w * 64 + static_cast<std::size_t>(std::countr_zero(gained));
                    if (++known[r] == cfg.k) times[r] = t;
                }
            }
        }
    };
    graph::VisibilityGraphBuilder::build_naive(pos, cfg.radius, cfg.metric, dsu);
    exchange(0);
    for (std::int64_t t = 1; !rumors.complete() && t <= max_steps; ++t) {
        for (auto& p : pos) p = walk::step(g, p, rng, cfg.walk);
        graph::VisibilityGraphBuilder::build_naive(pos, cfg.radius, cfg.metric, dsu);
        exchange(t);
    }
    return times;
}

struct GossipPathwiseParam {
    grid::Coord side;
    std::int32_t k;
    std::int64_t radius;
    grid::Metric metric;
    std::uint64_t seed;
};

class GossipPathwiseEquivalence : public ::testing::TestWithParam<GossipPathwiseParam> {};

TEST_P(GossipPathwiseEquivalence, PerRumorTimesMatchDenseReferenceLoop) {
    const auto param = GetParam();
    EngineConfig cfg;
    cfg.side = param.side;
    cfg.k = param.k;
    cfg.radius = param.radius;
    cfg.metric = param.metric;
    cfg.seed = param.seed;
    constexpr std::int64_t kMaxSteps = 20000;
    GossipProcess engine{cfg};
    const auto tg = engine.run_until_complete(kMaxSteps);
    ASSERT_TRUE(tg.has_value());
    const auto ref = reference_rumor_times(cfg, kMaxSteps);
    for (std::int32_t r = 0; r < cfg.k; ++r) {
        EXPECT_EQ(engine.rumor_broadcast_time(r), ref[static_cast<std::size_t>(r)])
            << "rumor " << r;
    }
    EXPECT_EQ(*tg, *std::max_element(ref.begin(), ref.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Radii, GossipPathwiseEquivalence,
    ::testing::Values(GossipPathwiseParam{20, 70, 0, grid::Metric::kManhattan, 41},
                      GossipPathwiseParam{14, 40, 0, grid::Metric::kManhattan, 42},
                      GossipPathwiseParam{24, 90, 1, grid::Metric::kManhattan, 43},
                      GossipPathwiseParam{24, 70, 1, grid::Metric::kChebyshev, 44},
                      GossipPathwiseParam{32, 130, 3, grid::Metric::kEuclidean, 45}));

// ----------------------------------------------------- thread invariance

// The lab contract, exercised on the real scenarios this PR touches:
// records must be byte-identical at any --threads, Frog model and the new
// step_throughput micro-benchmark included.
TEST(ThreadInvariance, RealScenarioRecordsAreByteIdentical) {
    exp::register_builtin_scenarios();
    const auto& registry = exp::ScenarioRegistry::instance();
    const struct {
        const char* scenario;
        exp::ParamValues values;
    } points[] = {
        {"grid_broadcast", {{"side", "16"}, {"k", "12"}, {"radius", "2"}}},
        {"frog_broadcast", {{"side", "14"}, {"k", "10"}, {"radius", "1"}}},
        {"step_throughput",
         {{"side", "32"}, {"k", "64"}, {"radius", "rc"}, {"steps", "50"}, {"mobility", "frog"}}},
    };
    for (const auto& point : points) {
        std::vector<std::string> outputs;
        for (const int threads : {1, 4}) {
            exp::RunOptions options;
            options.reps = 6;
            options.seed = 31337;
            options.threads = threads;
            const auto result =
                exp::run_point(registry.at(point.scenario), point.values, options);
            std::ostringstream os;
            exp::JsonlWriter{os}.write(result);
            outputs.push_back(os.str());
        }
        EXPECT_EQ(outputs[0], outputs[1]) << point.scenario;
    }
}

}  // namespace
}  // namespace smn::core
