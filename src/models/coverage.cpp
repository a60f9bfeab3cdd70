#include "models/coverage.hpp"

#include <algorithm>
#include <vector>

#include "core/bounds.hpp"
#include "core/observers.hpp"
#include "walk/ensemble.hpp"

namespace smn::models {

CoverResult run_cover_time(grid::Coord side, std::int32_t k, std::uint64_t seed,
                           std::int64_t max_steps, walk::WalkKind walk) {
    const auto grid = grid::Grid2D::square(side);
    rng::Rng rng{seed};
    walk::AgentEnsemble agents{grid, k, rng, walk};

    const std::int64_t cap =
        max_steps >= 0
            ? max_steps
            : std::max<std::int64_t>(
                  4096, 64 * static_cast<std::int64_t>(core::bounds::cover_time_scale(
                            grid.size(), k)));

    std::vector<std::uint8_t> visited(static_cast<std::size_t>(grid.size()), 0);
    std::int64_t covered = 0;
    const auto visit_all = [&] {
        for (const auto p : agents.positions()) {
            auto& mark = visited[static_cast<std::size_t>(grid.node_id(p))];
            if (!mark) {
                mark = 1;
                ++covered;
            }
        }
    };

    visit_all();
    std::int64_t t = 0;
    while (covered < grid.size() && t < cap) {
        ++t;
        agents.step_all(rng);
        visit_all();
    }

    return CoverResult{
        .covered = covered == grid.size(),
        .cover_time = covered == grid.size() ? t : -1,
        .covered_nodes = covered,
    };
}

BroadcastCoverageResult run_broadcast_with_coverage(const core::EngineConfig& config,
                                                    std::int64_t max_steps) {
    const std::int64_t cap = max_steps >= 0
                                 ? max_steps
                                 : 4 * core::bounds::default_max_steps(config.n(), config.k);

    core::BroadcastProcess process{config};
    core::CoverageObserver coverage{process.grid()};
    coverage.on_step(process.view());

    BroadcastCoverageResult result;
    // T_B may already be reached at t = 0 (k = 1, or everyone in one
    // component at the start).
    if (process.complete()) {
        result.broadcast_time = 0;
        result.broadcast_completed = true;
    }
    while (!coverage.covered_all() && process.time() < cap) {
        process.step();
        coverage.on_step(process.view());
        if (process.complete() && result.broadcast_time < 0) {
            result.broadcast_time = process.time();
            result.broadcast_completed = true;
        }
    }
    result.covered = coverage.covered_all();
    result.coverage_time = coverage.coverage_time();
    return result;
}

}  // namespace smn::models
