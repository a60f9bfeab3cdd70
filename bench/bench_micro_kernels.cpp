// bench_micro_kernels — Experiment E18 (engineering, not a paper claim).
//
// google-benchmark timings of the hot kernels that set the simulator's
// throughput: walk stepping, the r = 0 co-location pass, cell-list
// rebuilds, visibility component construction at several radii, component
// flooding, and a full engine step. These justify the performance envelope quoted in DESIGN.md
// (O(k) expected per time step at sparse densities).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "graph/range_filter.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "spatial/bucket_index.hpp"
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

// The r = 0 component pass (the builder's build() over its stamped
// co-location table) in isolation, over 64 precomputed frames of a walk
// so that consecutive passes see moved agents, as in the engine.
void BM_ColocationPass(benchmark::State& state) {
    const auto g = grid::Grid2D::square(static_cast<grid::Coord>(state.range(0)));
    const auto k = static_cast<std::int32_t>(state.range(1));
    rng::Rng rng{2};
    walk::AgentEnsemble agents{g, k, rng};
    std::vector<std::vector<grid::Point>> frames;
    for (int f = 0; f < 64; ++f) {
        agents.step_all(rng);
        frames.emplace_back(agents.positions().begin(), agents.positions().end());
    }
    graph::VisibilityGraphBuilder builder{g, 0};
    graph::DisjointSets dsu{static_cast<std::size_t>(k)};
    std::size_t f = 0;
    for (auto _ : state) {
        builder.build(frames[f], dsu);
        f = (f + 1) % frames.size();
        benchmark::DoNotOptimize(builder.linked().data());
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_ColocationPass)->Args({256, 1024})->Args({1024, 1024});

void BM_BucketRebuild(benchmark::State& state) {
    const auto k = static_cast<std::int32_t>(state.range(0));
    const auto g = grid::Grid2D::square(256);
    rng::Rng rng{3};
    walk::AgentEnsemble agents{g, k, rng};
    auto idx = spatial::BucketIndex::for_radius(g, 8);
    for (auto _ : state) {
        idx.rebuild(agents.positions());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_BucketRebuild)->Arg(256)->Arg(4096);

void BM_VisibilityBuild(benchmark::State& state) {
    const auto k = static_cast<std::int32_t>(state.range(0));
    const auto radius = state.range(1);
    const auto g = grid::Grid2D::square(256);
    rng::Rng rng{4};
    walk::AgentEnsemble agents{g, k, rng};
    graph::VisibilityGraphBuilder builder{g, radius};
    graph::DisjointSets dsu{static_cast<std::size_t>(k)};
    for (auto _ : state) {
        builder.build(agents.positions(), dsu);
        benchmark::DoNotOptimize(dsu.set_count());
    }
    state.SetItemsProcessed(state.iterations() * k);
}
// Radii spanning r = 0, subcritical, percolation-scale (√(n/k)) and above.
BENCHMARK(BM_VisibilityBuild)
    ->Args({256, 0})
    ->Args({256, 4})
    ->Args({256, 16})
    ->Args({256, 32})
    ->Args({4096, 0})
    ->Args({4096, 4});

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
// The two PR-6 kernels, each timed against its always-scalar reference so
// one binary shows the backend's speedup (or, on a force-scalar build,
// confirms parity). Both pairs process identical inputs; the references
// are the same functions the bit-identity suites diff against.

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

void BM_InRangeMask(benchmark::State& state) {
    // Candidate slices shaped like the dense-scan reality at percolation
    // occupancy: short runs (the count argument) over padded SoA rows.
    const auto count = static_cast<std::size_t>(state.range(0));
    const bool scalar = state.range(1) != 0;
    rng::Rng rng{8};
    constexpr std::size_t kProbes = 4096;
    std::vector<std::int32_t> xs(kProbes + graph::kRangePad);
    std::vector<std::int32_t> ys(kProbes + graph::kRangePad);
    for (std::size_t i = 0; i < kProbes; ++i) {
        xs[i] = static_cast<std::int32_t>(rng.below(256));
        ys[i] = static_cast<std::int32_t>(rng.below(256));
    }
    constexpr auto kMetric = grid::Metric::kChebyshev;
    for (auto _ : state) {
        std::uint32_t acc = 0;
        for (std::size_t at = 0; at + count <= kProbes; at += count) {
            acc ^= scalar ? graph::in_range_mask8_scalar<kMetric>(xs.data() + at, ys.data() + at,
                                                                  count, 128, 128, 4)
                          : graph::in_range_mask8<kMetric>(xs.data() + at, ys.data() + at, count,
                                                           128, 128, 4);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kProbes / count * count));
    state.SetLabel(scalar ? "scalar-ref" : "backend");
}
BENCHMARK(BM_InRangeMask)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({8, 0})
    ->Args({8, 1});

void BM_EngineStep(benchmark::State& state) {
    const auto k = static_cast<std::int32_t>(state.range(0));
    const auto radius = state.range(1);
    core::EngineConfig cfg;
    cfg.side = 256;
    cfg.k = k;
    cfg.radius = radius;
    cfg.seed = 6;
    core::BroadcastProcess process{cfg};
    for (auto _ : state) {
        process.step();
        benchmark::DoNotOptimize(process.rumor().informed_count());
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_EngineStep)->Args({256, 0})->Args({256, 8})->Args({4096, 0})->Args({4096, 4});

}  // namespace

BENCHMARK_MAIN();
