// obs_test.cpp — telemetry layer: registry counters and gauges
// (including exact sums under concurrent increments), the bounded
// step-trace ring and its claim-once arming protocol, and the engine-level
// contracts, checked on both engines (broadcast and gossip share one step
// loop): tracing never perturbs trajectories, per-step scan counters
// satisfy rescanned + replayed == occupied units, and the destructor
// flushes each engine's tallies into the registry exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "graph/dsu.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "obs/step_trace.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace smn::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, ConcurrentIncrementsSumExactly) {
    auto& counter = Registry::instance().counter("test.concurrent_sum");
    counter.reset();
    constexpr int kThreads = 8;
    constexpr std::int64_t kEach = 50000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::int64_t i = 0; i < kEach; ++i) counter.add(1);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(counter.value(), kThreads * kEach);
}

TEST(Registry, HandlesAreStableAndNamed) {
    auto& a = Registry::instance().counter("test.stable_handle");
    auto& b = Registry::instance().counter("test.stable_handle");
    EXPECT_EQ(&a, &b);  // same name -> same metric, cacheable reference
    a.reset();
    a.add(3);
    bool found = false;
    for (const auto& [name, value] : Registry::instance().counters_snapshot()) {
        if (name == "test.stable_handle") {
            found = true;
            EXPECT_EQ(value, 3);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Registry, ResetAllZeroesButKeepsNames) {
    Registry::instance().counter("test.reset_me").add(7);
    Registry::instance().gauge("test.reset_gauge").set_max(9);
    Registry::instance().reset_all();
    EXPECT_EQ(Registry::instance().counter("test.reset_me").value(), 0);
    EXPECT_EQ(Registry::instance().gauge("test.reset_gauge").value(), 0);
    bool found = false;
    for (const auto& [name, value] : Registry::instance().counters_snapshot()) {
        found = found || name == "test.reset_me";
    }
    EXPECT_TRUE(found) << "reset_all must keep the name registered";
}

TEST(Registry, GaugeSetMaxIsMonotone) {
    auto& gauge = Registry::instance().gauge("test.peak");
    gauge.reset();
    gauge.set_max(10);
    gauge.set_max(3);  // lower value must not win
    EXPECT_EQ(gauge.value(), 10);
    gauge.set_max(25);
    EXPECT_EQ(gauge.value(), 25);
}

// -------------------------------------------------------------- step trace

TEST(StepTrace, RingKeepsLatestAndCountsDropped) {
    StepTrace trace{4};
    for (std::int64_t s = 0; s < 10; ++s) {
        StepRecord rec{};
        rec.step = s;
        trace.push(rec);
    }
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.dropped(), 6);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace.at(i).step, static_cast<std::int64_t>(6 + i))
            << "records must stay chronological after wrap";
    }
}

TEST(StepTrace, WriteJsonEmitsEveryRetainedStep) {
    StepTrace trace{8};
    StepRecord rec{};
    rec.step = 3;
    rec.rescanned = 17;
    rec.walk_s = 0.25;
    trace.push(rec);
    std::ostringstream out;
    trace.write_json(out);
    const auto text = out.str();
    EXPECT_NE(text.find("\"record\":\"step_trace\""), std::string::npos);
    EXPECT_NE(text.find("\"step\":3"), std::string::npos);
    EXPECT_NE(text.find("\"rescanned\":17"), std::string::npos);
    EXPECT_NE(text.find("\"walk_s\":0.25"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

TEST(StepTrace, ArmedTraceIsClaimedExactlyOnce) {
    StepTrace trace;
    arm_trace(&trace);
    EXPECT_EQ(claim_trace(), &trace);
    EXPECT_EQ(claim_trace(), nullptr) << "second claimant must lose";
    arm_trace(&trace);
    disarm_trace();
    EXPECT_EQ(claim_trace(), nullptr) << "disarm must withdraw the trace";
}

// ------------------------------------------------- engine-level contracts

core::EngineConfig small_config() {
    core::EngineConfig cfg;
    cfg.side = 24;
    cfg.k = 48;
    cfg.radius = 2;
    cfg.seed = 20110601;
    return cfg;
}

/// The trajectory each engine contract compares: informed agents for
/// broadcast, known (agent, rumor) pairs for gossip.
std::int64_t progress(const core::BroadcastProcess& process) {
    return process.rumor().informed_count();
}
std::int64_t progress(const core::GossipProcess& process) { return process.known_pairs(); }

/// Agents that know every rumor (the trace's `informed` gauge), counted
/// from the knowledge state.
std::int64_t agents_knowing_all(const core::BroadcastProcess& process) {
    return process.rumor().informed_count();
}
std::int64_t agents_knowing_all(const core::GossipProcess& process) {
    std::int64_t count = 0;
    for (std::int32_t a = 0; a < process.config().k; ++a) count += process.rumors().knows_all(a);
    return count;
}

template <typename Process>
std::vector<std::int64_t> progress_series(Process& process, int steps) {
    std::vector<std::int64_t> series;
    for (int s = 0; s < steps; ++s) {
        process.step();
        series.push_back(progress(process));
    }
    return series;
}

template <typename Process>
void expect_tracing_never_perturbs() {
    constexpr int kSteps = 40;
    Process plain{small_config()};
    const auto baseline = progress_series(plain, kSteps);

    StepTrace trace;
    arm_trace(&trace);
    Process traced{small_config()};
    const auto with_trace = progress_series(traced, kSteps);
    disarm_trace();

    EXPECT_EQ(baseline, with_trace);
    EXPECT_EQ(trace.size(), static_cast<std::size_t>(kSteps));
}

TEST(EngineTrace, TracingNeverPerturbsTrajectories) {
    expect_tracing_never_perturbs<core::BroadcastProcess>();
    expect_tracing_never_perturbs<core::GossipProcess>();
}

template <typename Process>
void expect_records_carry_gauges() {
    StepTrace trace;
    Process process{small_config()};
    process.set_trace(&trace);
    std::vector<std::int64_t> done;
    for (int s = 0; s < 10; ++s) {
        process.step();
        done.push_back(agents_knowing_all(process));
    }
    ASSERT_EQ(trace.size(), 10u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& rec = trace.at(i);
        EXPECT_EQ(rec.step, static_cast<std::int64_t>(i + 1));
        if constexpr (std::is_same_v<Process, core::BroadcastProcess>) {
            EXPECT_GE(rec.informed, 1);
        }
        EXPECT_EQ(rec.informed, done[i]);
        EXPECT_GE(rec.components, 1);
        EXPECT_GE(rec.units, 1);
    }
}

TEST(EngineTrace, RecordsCarryGaugesAndStepNumbers) {
    expect_records_carry_gauges<core::BroadcastProcess>();
    expect_records_carry_gauges<core::GossipProcess>();
}

// GoldenGossip.ReproducesSeedImplementationBitForBit's first config, run
// with the trace armed: the gossip engine claims it, traces every step,
// and reproduces the same T_G and rumor times.
TEST(EngineTrace, ArmedTraceLeavesGossipGoldensIntact) {
    core::EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 6;
    cfg.radius = 2;
    cfg.seed = 4;
    StepTrace trace;
    arm_trace(&trace);
    const auto res = core::run_gossip(cfg);
    disarm_trace();
    EXPECT_EQ(res.gossip_time, 117);
    EXPECT_EQ(res.max_rumor_broadcast_time, 117);
    EXPECT_EQ(res.min_rumor_broadcast_time, 79);
    EXPECT_DOUBLE_EQ(res.mean_rumor_broadcast_time, 99.666666666666671);
    ASSERT_EQ(trace.size(), 117u);
    EXPECT_EQ(trace.at(116).step, 117);
    EXPECT_EQ(trace.at(116).informed, cfg.k);
}

// The central sanity invariant of the component pass: every occupied cell
// is scanned exactly once per pass and nothing is replayed, so the
// per-step rescanned delta must equal the occupied-cell count. Checked
// through the trace (whose rescanned field is a per-step delta and whose
// units field is the occupied count at the same pass).
TEST(EngineCounters, RescannedPlusReplayedTilesOccupiedUnitsEachStep) {
    StepTrace trace;
    core::BroadcastProcess process{small_config()};
    process.set_trace(&trace);
    // Stop at completion: post-saturation steps take the lazy path (no
    // component pass), which the invariant deliberately doesn't cover.
    for (int s = 0; s < 60 && !process.complete(); ++s) process.step();
    ASSERT_GE(trace.size(), 10u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& rec = trace.at(i);
        EXPECT_EQ(rec.rescanned, rec.units) << "step " << rec.step;
    }
    for (const auto& [name, value] : process.counters()) {
        const std::string_view n{name};
        if (n == "scan.units_replayed" || n == "scan.bypass_passes" ||
            n == "scan.edges_replayed") {
            EXPECT_EQ(value, 0.0) << n;
        }
    }
}

// Same invariant straight at the builder layer, under churn: quiet rounds
// of two single-cell steps alternate with teleport storms.
TEST(BuilderCounters, ScanStatsTileOccupiedUnitsUnderChurn) {
    const auto g = grid::Grid2D::square(20);
    rng::Rng rng{99};
    graph::VisibilityGraphBuilder builder{g, 2};
    graph::DisjointSets dsu{0};
    std::vector<grid::Point> pos;
    for (int i = 0; i < 40; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    builder.build(pos, dsu);
    auto prev = builder.scan_stats();
    for (int round = 0; round < 50; ++round) {
        const std::size_t movers = round % 2 == 0 ? 2 : pos.size();
        for (std::size_t m = 0; m < movers; ++m) {
            const auto a = static_cast<std::size_t>(rng.below(pos.size()));
            pos[a] = movers > 2 ? walk::AgentEnsemble::random_node(g, rng)
                                : walk::step(g, pos[a], rng);
        }
        builder.build(pos, dsu);
        const auto cur = builder.scan_stats();
        EXPECT_EQ(cur.rescanned_units - prev.rescanned_units, builder.occupied_units())
            << "round " << round;
        EXPECT_EQ(cur.passes - prev.passes, 1) << "round " << round;
        EXPECT_EQ(cur.replayed_units, 0);
        EXPECT_EQ(cur.bypass_passes, 0);
        EXPECT_EQ(cur.edges_replayed, 0);
        prev = cur;
    }
}

// index_stats() diffs each pass's positions against the previous pass's:
// moves counts the agents whose node changed, relinks those whose cell
// (side r) changed, whatever moved them and however many steps apart the
// passes are. r = 0 keeps no cell list and counts nothing.
TEST(BuilderCounters, IndexStatsCountMotionBetweenPasses) {
    const auto g = grid::Grid2D::square(20);
    rng::Rng rng{7};
    graph::VisibilityGraphBuilder builder{g, 3};
    graph::VisibilityGraphBuilder colocation{g, 0};
    graph::DisjointSets dsu{0};
    std::vector<grid::Point> pos;
    for (int i = 0; i < 40; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    builder.build(pos, dsu);
    colocation.build(pos, dsu);
    EXPECT_EQ(builder.index_stats().moves, 0);
    std::int64_t moves = 0;
    std::int64_t relinks = 0;
    for (int round = 0; round < 30; ++round) {
        const auto before = pos;
        for (int s = 0; s <= round % 3; ++s) {
            for (auto& p : pos) {
                p = round % 5 == 4 ? walk::AgentEnsemble::random_node(g, rng)
                                   : walk::step(g, p, rng);
            }
        }
        for (std::size_t a = 0; a < pos.size(); ++a) {
            moves += pos[a] != before[a] ? 1 : 0;
            relinks += pos[a].x / 3 != before[a].x / 3 || pos[a].y / 3 != before[a].y / 3 ? 1 : 0;
        }
        builder.build(pos, dsu);
        colocation.build(pos, dsu);
        EXPECT_EQ(builder.index_stats().moves, moves) << "round " << round;
        EXPECT_EQ(builder.index_stats().relinks, relinks) << "round " << round;
    }
    EXPECT_GT(relinks, 0);
    EXPECT_LT(relinks, moves);
    EXPECT_EQ(colocation.index_stats().moves, 0);
    EXPECT_EQ(colocation.index_stats().relinks, 0);
}

template <typename Process>
std::vector<std::string> counter_names() {
    Process process{small_config()};
    for (int s = 0; s < 5; ++s) process.step();
    std::vector<std::string> names;
    for (const auto& [name, value] : process.counters()) names.emplace_back(name);
    return names;
}

TEST(EngineCounters, ReportsTheDocumentedNames) {
    const auto names = counter_names<core::BroadcastProcess>();
    for (const char* expected :
         {"scan.passes", "scan.units_rescanned", "scan.units_replayed",
          "scan.bypass_passes", "scan.pairs_tested", "scan.pairs_survived",
          "scan.edges_replayed", "index.moves", "index.relinks", "dsu.unites",
          "walk.blocks_decoded"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
            << "missing counter " << expected;
    }
    EXPECT_EQ(counter_names<core::GossipProcess>(), names);
}

template <typename Process>
void expect_flush_exactly_once() {
    Registry::instance().reset_all();
    double passes = 0.0;
    {
        Process process{small_config()};
        for (int s = 0; s < 8; ++s) process.step();
        for (const auto& [name, value] : process.counters()) {
            if (std::string_view{name} == "scan.passes") passes = value;
        }
        // A moved-from shell must not flush again on destruction.
        Process moved{std::move(process)};
    }
    EXPECT_GT(passes, 0.0);
    EXPECT_EQ(Registry::instance().counter("engine.scan.passes").value(),
              static_cast<std::int64_t>(passes));
}

TEST(EngineCounters, DestructorFlushesToRegistryExactlyOnce) {
    expect_flush_exactly_once<core::BroadcastProcess>();
    expect_flush_exactly_once<core::GossipProcess>();
}

TEST(Provenance, BuildInfoIsPopulated) {
    const auto info = build_info();
    EXPECT_NE(info.git_sha, nullptr);
    EXPECT_NE(info.build_type, nullptr);
    EXPECT_NE(info.simd_backend, nullptr);
    EXPECT_NE(std::string_view{info.simd_backend}, "");
    EXPECT_TRUE(info.obs_enabled);  // telemetry is part of every build
}

}  // namespace
}  // namespace smn::obs
