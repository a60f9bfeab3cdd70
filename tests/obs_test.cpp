// obs_test.cpp — telemetry layer: the bounded step-trace ring, which the
// first engine built under a counter sink carrying it takes, and the
// engine-level contracts, checked on
// both engines (broadcast and gossip share one step loop): tracing never
// perturbs trajectories, the trace's per-step counter deltas add up to
// counters(), per-step scan counters satisfy rescanned + replayed ==
// occupied units, saturated steps skip the component pass even while
// recorded, and the destructor flushes each engine's counters into the
// thread's counter sink exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cell_observer.hpp"
#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "graph/dsu.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "obs/counter_sink.hpp"
#include "obs/provenance.hpp"
#include "obs/step_trace.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace smn::obs {
namespace {

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
    rec.counters = {{"scan.units_rescanned", 17.0}, {"dsu.unites", 2.0}};
    rec.walk_s = 0.25;
    trace.push(rec);
    std::ostringstream out;
    trace.write_json(out);
    const auto text = out.str();
    EXPECT_NE(text.find("\"schema\":2,\"record\":\"step_trace\""), std::string::npos);
    EXPECT_NE(text.find("\"step\":3"), std::string::npos);
    EXPECT_NE(text.find("\"counters\":{\"scan.units_rescanned\":17,\"dsu.unites\":2}"),
              std::string::npos);
    EXPECT_NE(text.find("\"walk_s\":0.25"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

// ------------------------------------------------- engine-level contracts

/// The value of counter `name` in `counters`; -1 when it is absent.
double counter(const Counters& counters, std::string_view name) {
    for (const auto& [n, value] : counters) {
        if (name == n) return value;
    }
    return -1.0;
}

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

/// A counter sink carrying `trace`: the first engine built under it traces.
CounterSink tracing(StepTrace& trace) {
    CounterSink sink;
    sink.trace = &trace;
    return sink;
}

// Two engines built under one traced sink: the first takes the trace
// (clearing the sink's pointer), the second never traces.
TEST(StepTrace, ArmedTraceIsClaimedExactlyOnce) {
    StepTrace trace;
    auto sink = tracing(trace);
    const ScopedCounterSink scope{sink};
    core::BroadcastProcess first{small_config()};
    EXPECT_EQ(sink.trace, nullptr) << "the first engine must take the trace";
    core::GossipProcess second{small_config()};
    for (int s = 0; s < 5; ++s) second.step();
    EXPECT_EQ(trace.size(), 0u) << "the second engine must not trace";
    for (int s = 0; s < 3; ++s) first.step();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.at(2).step, 3);
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
    auto sink = tracing(trace);
    const ScopedCounterSink scope{sink};
    Process traced{small_config()};
    const auto with_trace = progress_series(traced, kSteps);

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
    auto sink = tracing(trace);
    const ScopedCounterSink scope{sink};
    Process process{small_config()};
    std::vector<std::int64_t> done;
    std::vector<std::int64_t> occupied;
    for (int s = 0; s < 10; ++s) {
        process.step();
        done.push_back(agents_knowing_all(process));
        const auto pos = process.agents().positions();
        occupied.push_back(static_cast<std::int64_t>(
            std::set<grid::Point>(pos.begin(), pos.end()).size()));
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
        // r = 2: the node pass's units are the occupied nodes.
        EXPECT_EQ(rec.units, occupied[i]) << "step " << rec.step;
    }
}

TEST(EngineTrace, RecordsCarryGaugesAndStepNumbers) {
    expect_records_carry_gauges<core::BroadcastProcess>();
    expect_records_carry_gauges<core::GossipProcess>();
}

// GoldenGossip.ReproducesSeedImplementationBitForBit's first config, run
// under a traced sink: the gossip engine takes the trace, traces every step,
// and reproduces the same T_G and rumor times.
TEST(EngineTrace, ArmedTraceLeavesGossipGoldensIntact) {
    core::EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 6;
    cfg.radius = 2;
    cfg.seed = 4;
    StepTrace trace;
    auto sink = tracing(trace);
    const auto res = [&] {
        const ScopedCounterSink scope{sink};
        return core::run_gossip(cfg);
    }();
    EXPECT_EQ(res.gossip_time, 117);
    EXPECT_EQ(res.max_rumor_broadcast_time, 117);
    EXPECT_EQ(res.min_rumor_broadcast_time, 79);
    EXPECT_DOUBLE_EQ(res.mean_rumor_broadcast_time, 99.666666666666671);
    ASSERT_EQ(trace.size(), 117u);
    EXPECT_EQ(trace.at(116).step, 117);
    EXPECT_EQ(trace.at(116).informed, cfg.k);
}

// The central sanity invariant of the component pass: every occupied node
// is scanned exactly once per pass and nothing is replayed, so the
// per-step scan.units_rescanned delta must equal the occupied-node count.
// Checked through the trace (whose counters are per-step deltas and whose
// units field is the occupied count at the same pass).
TEST(EngineCounters, RescannedPlusReplayedTilesOccupiedUnitsEachStep) {
    StepTrace trace;
    auto sink = tracing(trace);
    const ScopedCounterSink scope{sink};
    core::BroadcastProcess process{small_config()};
    // Stop at completion: post-saturation steps take the lazy path (no
    // component pass), which the invariant deliberately doesn't cover.
    for (int s = 0; s < 60 && !process.complete(); ++s) process.step();
    ASSERT_GE(trace.size(), 10u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& rec = trace.at(i);
        EXPECT_EQ(counter(rec.counters, "scan.units_rescanned"),
                  static_cast<double>(rec.units))
            << "step " << rec.step;
    }
    for (const auto& [name, value] : process.counters()) {
        const std::string_view n{name};
        if (n == "scan.units_replayed" || n == "scan.bypass_passes" ||
            n == "scan.edges_replayed") {
            EXPECT_EQ(value, 0.0) << n;
        }
    }
}

/// Cumulative scan.passes of an engine.
template <typename Process>
double scan_passes(const Process& process) {
    return counter(process.counters(), "scan.passes");
}

// Recording reads the process and holds nothing back: with a cell
// recorder fed every step, each saturated step still skips the component
// pass, so scan.passes stops growing once complete().
TEST(EngineCounters, SaturatedStepsSkipTheComponentPass) {
    core::BroadcastProcess process{small_config()};
    core::CellReachObserver cells{process.grid(), 6};
    cells.on_step(process.view());
    for (int s = 0; s < 100000 && !process.complete(); ++s) {
        process.step();
        cells.on_step(process.view());
    }
    ASSERT_TRUE(process.complete());
    const double at_completion = scan_passes(process);
    EXPECT_GT(at_completion, 0.0);
    for (int s = 0; s < 50; ++s) {
        process.step();
        cells.on_step(process.view());
    }
    EXPECT_EQ(scan_passes(process), at_completion);
    EXPECT_GT(cells.reached_count(), 0);
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
// moves counts the agents whose node changed, whatever moved them and
// however many steps apart the passes are. relinks stays 0: the node pass
// has no cells. r = 0 counts nothing.
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
    for (int round = 0; round < 30; ++round) {
        const auto before = pos;
        for (int s = 0; s <= round % 3; ++s) {
            for (auto& p : pos) {
                p = round % 5 == 4 ? walk::AgentEnsemble::random_node(g, rng)
                                   : walk::step(g, p, rng);
            }
        }
        for (std::size_t a = 0; a < pos.size(); ++a) moves += pos[a] != before[a] ? 1 : 0;
        builder.build(pos, dsu);
        colocation.build(pos, dsu);
        EXPECT_EQ(builder.index_stats().moves, moves) << "round " << round;
        EXPECT_EQ(builder.index_stats().relinks, 0) << "round " << round;
    }
    EXPECT_GT(moves, 0);
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
    // The outer sink also carries a trace: its first engine traces (and
    // times its phases) yet, the sink being untimed, reports no timing.*.
    StepTrace trace;
    auto sink = tracing(trace);
    CounterSink inner;
    inner.timed = true;
    Counters totals;
    {
        const ScopedCounterSink scope{sink};
        Process process{small_config()};
        for (int s = 0; s < 8; ++s) process.step();
        totals = process.counters();
        {
            // A nested scope collects its own engines and hands the outer
            // sink back when it ends; being timed, it also gets phases.
            const ScopedCounterSink nested{inner};
            Process other{small_config()};
        }
        EXPECT_EQ(counter_sink(), &sink);
        // A moved-from shell must not flush again on destruction.
        Process moved{std::move(process)};
    }
    EXPECT_EQ(counter_sink(), nullptr);
    EXPECT_EQ(sink.trace, nullptr);
    EXPECT_EQ(trace.size(), 8u);  // the first engine's steps only
    ASSERT_EQ(sink.metrics.size(), totals.size() + 1);  // + obs.agents, no timing.*
    EXPECT_EQ(sink.metrics.at("obs.agents"), small_config().k);
    EXPECT_GT(counter(totals, "scan.passes"), 0.0);
    for (const auto& [name, value] : totals) {
        EXPECT_EQ(sink.metrics.at(std::string{"obs."} + name), value) << name;
    }
    EXPECT_EQ(inner.metrics.at("obs.scan.passes"), 1.0);  // the nested engine's t = 0 pass
    EXPECT_EQ(inner.metrics.size(), totals.size() + 1 + 4);  // + obs.agents, 4 timing.*
    // Without a sink the destructor adds nothing anywhere.
    { Process unsunk{small_config()}; }
    EXPECT_EQ(sink.metrics.at("obs.scan.passes"), counter(totals, "scan.passes"));
}

TEST(EngineCounters, DestructorFlushesToSinkExactlyOnce) {
    expect_flush_exactly_once<core::BroadcastProcess>();
    expect_flush_exactly_once<core::GossipProcess>();
}

/// Traces a whole run from construction through `extra` saturated steps
/// and checks that each counter's per-step deltas add up to its change
/// since the trace was attached, and that every record names the
/// counters() entries in counters() order.
template <typename Process>
void expect_trace_deltas_sum_to_counters(const core::EngineConfig& cfg, int extra) {
    StepTrace trace{1 << 16};
    auto sink = tracing(trace);
    const ScopedCounterSink scope{sink};
    Process process{cfg};
    const auto at_attach = process.counters();
    ASSERT_TRUE(process.run_until_complete(1 << 15).has_value());
    for (int s = 0; s < extra; ++s) process.step();
    const auto final_totals = process.counters();
    ASSERT_EQ(trace.dropped(), 0);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(process.time()));
    std::vector<double> sums(final_totals.size(), 0.0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& deltas = trace.at(i).counters;
        ASSERT_EQ(deltas.size(), final_totals.size());
        for (std::size_t c = 0; c < deltas.size(); ++c) {
            ASSERT_EQ(std::string_view{deltas[c].first}, final_totals[c].first);
            EXPECT_GE(deltas[c].second, 0.0) << deltas[c].first;
            sums[c] += deltas[c].second;
        }
    }
    for (std::size_t c = 0; c < final_totals.size(); ++c) {
        EXPECT_EQ(sums[c], final_totals[c].second - at_attach[c].second)
            << final_totals[c].first << " radius " << cfg.radius;
    }
    // Saturated steps walk only: the last `extra` records carry walk
    // blocks and nothing from the component pass or the exchange.
    for (std::size_t i = trace.size() - static_cast<std::size_t>(extra); i < trace.size(); ++i) {
        EXPECT_EQ(counter(trace.at(i).counters, "scan.passes"), 0.0);
        EXPECT_EQ(counter(trace.at(i).counters, "exchange.linked"), 0.0);
        EXPECT_GT(counter(trace.at(i).counters, "walk.blocks_decoded") +
                      counter(trace.at(i).counters, "walk.blocks_scalar"),
                  0.0);
    }
}

TEST(EngineTrace, CounterDeltasSumToCountersOverWholeRuns) {
    auto cfg = small_config();
    for (const std::int64_t radius : {0, 2}) {
        cfg.radius = radius;
        cfg.mobility = core::Mobility::kAllMove;
        expect_trace_deltas_sum_to_counters<core::BroadcastProcess>(cfg, 12);
        expect_trace_deltas_sum_to_counters<core::GossipProcess>(cfg, 12);
        cfg.mobility = core::Mobility::kInformedOnly;  // frog
        expect_trace_deltas_sum_to_counters<core::BroadcastProcess>(cfg, 12);
    }
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
