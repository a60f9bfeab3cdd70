// bench_micro_kernels — Experiment E18 (engineering, not a paper claim).
//
// google-benchmark timings of the hot kernels that set the simulator's
// throughput: walk stepping, the r = 0 co-location pass, visibility
// component construction at several radii, component flooding, and whole
// broadcast and gossip replications (the exchange layer). These
// justify the performance envelope quoted in DESIGN.md (O(k) expected per
// time step at sparse densities).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/bounds.hpp"
#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "walk/decode.hpp"
#include "walk/ensemble.hpp"

namespace {

using namespace smn;

void BM_WalkStepAll(benchmark::State& state) {
    const auto k = static_cast<std::int32_t>(state.range(0));
    const auto g = grid::Grid2D::square(256);
    rng::Rng rng{1};
    walk::AgentEnsemble agents{g, k, rng};
    for (auto _ : state) {
        agents.step_all(rng);
        benchmark::DoNotOptimize(agents.positions().data());
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_WalkStepAll)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

/// The Frog model's walk: a fixed random half of the k agents moves, the
/// rest take the stay draw. Items are all k agents, as in BM_WalkStepAll.
void BM_WalkStepSubset(benchmark::State& state) {
    const auto k = static_cast<std::int32_t>(state.range(0));
    const auto g = grid::Grid2D::square(256);
    rng::Rng rng{1};
    walk::AgentEnsemble agents{g, k, rng};
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(k));
    for (auto& m : mask) m = static_cast<std::uint8_t>(rng.below(2));
    for (auto _ : state) {
        agents.step_subset(rng, mask);
        benchmark::DoNotOptimize(agents.positions().data());
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_WalkStepSubset)->Arg(1024);

/// 64 consecutive frames of k agents walking on a side × side grid, so
/// that consecutive builds see moved agents, as in the engine.
std::vector<std::vector<grid::Point>> walk_frames(const grid::Grid2D& g, std::int32_t k,
                                                  std::uint64_t seed) {
    rng::Rng rng{seed};
    walk::AgentEnsemble agents{g, k, rng};
    std::vector<std::vector<grid::Point>> frames;
    for (int f = 0; f < 64; ++f) {
        agents.step_all(rng);
        frames.emplace_back(agents.positions().begin(), agents.positions().end());
    }
    return frames;
}

/// Builder build() cost over walk_frames() (args: side, k).
void build_over_frames(benchmark::State& state, std::int64_t radius, std::uint64_t seed) {
    const auto g = grid::Grid2D::square(static_cast<grid::Coord>(state.range(0)));
    const auto k = static_cast<std::int32_t>(state.range(1));
    const auto frames = walk_frames(g, k, seed);
    graph::VisibilityGraphBuilder builder{g, radius};
    graph::DisjointSets dsu{static_cast<std::size_t>(k)};
    std::size_t f = 0;
    for (auto _ : state) {
        builder.build(frames[f], dsu);
        f = (f + 1) % frames.size();
        benchmark::DoNotOptimize(builder.linked().data());
    }
    state.SetItemsProcessed(state.iterations() * k);
}

// The r = 0 component pass (the builder's build() over its stamped
// co-location table) in isolation.
void BM_ColocationPass(benchmark::State& state) { build_over_frames(state, 0, 2); }
BENCHMARK(BM_ColocationPass)->Args({256, 1024})->Args({1024, 1024});

// The component pass in isolation (args: side, k, radius): r = 0,
// subcritical, percolation-scale (√(n/k)) and above, plus paperbench's two
// r = 2 points (bcast_r2 at side 256, frog_r2 at side 128) and bcast_r2's
// r_c (side 256, k 1024: r = 8).
void BM_VisibilityBuild(benchmark::State& state) {
    build_over_frames(state, state.range(2), 4);
}
BENCHMARK(BM_VisibilityBuild)
    ->Args({256, 256, 0})
    ->Args({256, 256, 4})
    ->Args({256, 256, 16})
    ->Args({256, 256, 32})
    ->Args({256, 4096, 0})
    ->Args({256, 4096, 4})
    ->Args({256, 1024, 2})
    ->Args({128, 1024, 2})
    ->Args({256, 1024, 8});

void BM_ComponentStats(benchmark::State& state) {
    const auto k = static_cast<std::int32_t>(state.range(0));
    const auto g = grid::Grid2D::square(256);
    rng::Rng rng{5};
    walk::AgentEnsemble agents{g, k, rng};
    graph::VisibilityGraphBuilder builder{g, 8};
    graph::DisjointSets dsu{static_cast<std::size_t>(k)};
    builder.build(agents.positions(), dsu);
    for (auto _ : state) {
        const auto stats = graph::component_stats(dsu);
        benchmark::DoNotOptimize(stats.max_size);
    }
}
BENCHMARK(BM_ComponentStats)->Arg(256)->Arg(4096);

// ------------------------------------------------- vectorized kernel diffs
//
// The walk decode kernel timed against its always-scalar reference, so one
// binary shows the backend's speedup (or, on a force-scalar build,
// confirms parity). Both process identical inputs; the reference is the
// function the bit-identity suite diffs against.

void BM_WalkDecode5(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng{7};
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) w = rng.next_u64();
    std::vector<std::int32_t> draws(n);
    const bool scalar = state.range(1) != 0;
    for (auto _ : state) {
        const bool ok = scalar ? walk::decode_draws5_scalar(words.data(), n, draws.data())
                               : walk::decode_draws5(words.data(), n, draws.data());
        benchmark::DoNotOptimize(ok);
        benchmark::DoNotOptimize(draws.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
    state.SetLabel(scalar ? "scalar-ref" : "backend");
}
BENCHMARK(BM_WalkDecode5)->Args({4096, 0})->Args({4096, 1});

// One replication run to completion per iteration (args: side, k, r), the
// next seed each time; items are agent-steps. A whole run rather than a
// step: after completion the engine skips the component pass and the
// exchange, so a process stepped far past T_B times the walk alone.
template <typename Process>
void BM_Replication(benchmark::State& state) {
    core::EngineConfig cfg;
    cfg.side = static_cast<grid::Coord>(state.range(0));
    cfg.k = static_cast<std::int32_t>(state.range(1));
    cfg.radius = state.range(2);
    cfg.seed = 8;
    const auto cap = core::bounds::default_max_steps(cfg.n(), cfg.k);
    std::int64_t steps = 0;
    for (auto _ : state) {
        Process process{cfg};
        steps += process.run_until_complete(cap).value_or(cap);
        benchmark::DoNotOptimize(process.done_agents());
        ++cfg.seed;
    }
    state.SetItemsProcessed(steps * cfg.k);
}
// paperbench's bcast_r0 and bcast_r2 points.
BENCHMARK(BM_Replication<core::BroadcastProcess>)
    ->Name("BM_BroadcastReplication")
    ->Args({256, 1024, 0})
    ->Args({256, 1024, 2})
    ->Unit(benchmark::kMillisecond);
// paperbench's gossip_r0 point: the only load on the exchange layer (row
// merges and the per-rumor tally).
BENCHMARK(BM_Replication<core::GossipProcess>)
    ->Name("BM_GossipReplication")
    ->Args({128, 1024, 0})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
