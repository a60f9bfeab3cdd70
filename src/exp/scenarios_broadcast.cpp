// Broadcast-family scenarios: the paper's main process on the grid, the
// Frog-model variant, the torus boundary ablation, the radius sweep
// across the percolation point, and two views of the proof's structure
// (the cell wavefront and the informed frontier). All share the
// EngineConfig plumbing, so they live in one translation unit behind one
// link anchor.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/bounds.hpp"
#include "core/broadcast.hpp"
#include "core/cell_observer.hpp"
#include "core/observers.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "graph/percolation.hpp"
#include "grid/grid.hpp"
#include "models/colocation.hpp"

namespace smn::exp {
namespace {

/// Shared parameter declarations of the grid-broadcast family.
const std::vector<ParamSpec> kGridParams{
    {"side", "24", "grid side; n = side^2"},
    {"k", "16", "agent count: integer or log/sqrt/linear of n"},
    {"radius", "0", "transmission radius r"},
    {"walk", "lazy-1/5", "walk kernel: lazy-1/5 (paper), lazy-1/2 or simple"},
    {"metric", "manhattan", "distance metric: manhattan (paper), chebyshev or euclidean"},
};

walk::WalkKind walk_kind(const std::string& name) {
    for (const auto kind :
         {walk::WalkKind::kLazyPaper, walk::WalkKind::kLazyHalf, walk::WalkKind::kSimple}) {
        if (name == walk::walk_kind_name(kind)) return kind;
    }
    throw std::invalid_argument("walk must be lazy-1/5, lazy-1/2 or simple, got '" + name + "'");
}

grid::Metric metric(const std::string& name) {
    for (const auto m :
         {grid::Metric::kManhattan, grid::Metric::kChebyshev, grid::Metric::kEuclidean}) {
        if (name == grid::metric_name(m)) return m;
    }
    throw std::invalid_argument("metric must be manhattan, chebyshev or euclidean, got '" +
                                name + "'");
}

core::EngineConfig engine_config(const ScenarioParams& p, std::uint64_t seed) {
    core::EngineConfig cfg;
    cfg.side = static_cast<grid::Coord>(p.get_int("side"));
    cfg.k = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
    cfg.radius = p.get_int("radius");
    cfg.walk = walk_kind(p.get_string("walk"));
    cfg.metric = metric(p.get_string("metric"));
    cfg.seed = seed;
    return cfg;
}

Metrics broadcast_metrics(const core::BroadcastResult& res) {
    Metrics m;
    m["completed"] = res.completed ? 1.0 : 0.0;
    m["steps"] = static_cast<double>(res.steps_run);
    if (res.completed) m["broadcast_time"] = static_cast<double>(res.broadcast_time);
    return m;
}

SMN_REGISTER_SCENARIO(
    grid_scenario,
    Scenario{
        .name = "grid_broadcast",
        .title = "single-rumor broadcast on the sqrt(n) x sqrt(n) grid",
        .claim = "T_B = Theta~(n/sqrt(k)) for every r below r_c (Thm 1)",
        .params = kGridParams,
        .default_sweep = "side=16,24,32,48;k=16;radius=0",
        .quick_sweep = "side=12,16;k=8",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                return broadcast_metrics(core::run_broadcast(engine_config(p, seed)));
            },
    });

SMN_REGISTER_SCENARIO(
    frog_scenario,
    Scenario{
        .name = "frog_broadcast",
        .title = "Frog model: only informed agents move (Sec. 4)",
        .claim = "same Theta~(n/sqrt(k)) broadcast scale as the dynamic model",
        .params = kGridParams,
        .default_sweep = "side=24;k=8,16,32,64",
        .quick_sweep = "side=12;k=4,8",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                auto cfg = engine_config(p, seed);
                cfg.mobility = core::Mobility::kInformedOnly;
                return broadcast_metrics(core::run_broadcast(cfg));
            },
    });

SMN_REGISTER_SCENARIO(
    torus_scenario,
    Scenario{
        .name = "torus_broadcast",
        .title = "boundary ablation: the same broadcast on the torus (r = 0)",
        .claim = "boundaries change T_B only by constants (Lemma 1 reflection)",
        .params =
            std::vector<ParamSpec>{
                {"side", "24", "torus side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
            },
        .default_sweep = "side=24,48;k=log,sqrt",
        .quick_sweep = "side=12,16;k=log",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto side = static_cast<grid::Coord>(p.get_int("side"));
                const std::int64_t n = std::int64_t{side} * side;
                models::ColocationConfig cfg;
                cfg.k = static_cast<std::int32_t>(p.get_count("k", n));
                cfg.seed = seed;
                const auto res =
                    models::ColocationBroadcast{grid::Torus2D::square(side), cfg}.run(
                        core::bounds::default_max_steps(n, cfg.k));
                Metrics m;
                m["completed"] = res.completed ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(res.steps);
                if (res.completed) m["broadcast_time"] = static_cast<double>(res.steps);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    percolation_scenario,
    Scenario{
        .name = "percolation_radius",
        .title = "broadcast time vs r/r_c across the percolation boundary",
        .claim = "plateau below r_c ~ sqrt(n/k), collapse above (Thm 1+2)",
        .params =
            std::vector<ParamSpec>{
                {"side", "32", "grid side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
                {"rfrac", "0", "transmission radius as a fraction of r_c"},
            },
        .default_sweep = "side=32;k=16;rfrac=0,0.25,0.5,0.75,1,1.5,2",
        .quick_sweep = "side=16;k=8;rfrac=0,0.5,1,2",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                core::EngineConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.k = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
                const double rc = graph::percolation_radius(cfg.n(), cfg.k);
                cfg.radius =
                    static_cast<std::int64_t>(std::llround(p.get_double("rfrac") * rc));
                cfg.seed = seed;
                auto m = broadcast_metrics(core::run_broadcast(cfg));
                m["radius"] = static_cast<double>(cfg.radius);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    cell_spread_scenario,
    Scenario{
        .name = "cell_spread",
        .title = "cell-exploration wavefront of the Sec. 3.1 tessellation",
        .claim = "a cell's reach time grows linearly in its cell distance from the source "
                 "(Lemmas 4-5)",
        .params =
            std::vector<ParamSpec>{
                {"side", "96", "grid side; n = side^2"},
                {"k", "96", "agent count: integer or log/sqrt/linear of n"},
                {"cell", "12", "tessellation cell side l"},
            },
        .default_sweep = "side=96;k=96;cell=12",
        .quick_sweep = "side=48;k=24;cell=8",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                core::EngineConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.k = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
                cfg.seed = seed;
                core::BroadcastProcess process{cfg};
                core::CellReachObserver cells{process.grid(),
                                              static_cast<grid::Coord>(p.get_int("cell"))};
                cells.on_step(process.view());
                const auto cap = 4 * core::bounds::default_max_steps(cfg.n(), cfg.k);
                while ((!process.complete() || !cells.all_reached()) && process.time() < cap) {
                    process.step();
                    cells.on_step(process.view());
                }
                const bool done = process.complete() && cells.all_reached();
                Metrics m;
                m["completed"] = done ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(process.time());
                if (!done) return m;
                m["all_cells_reached_time"] = static_cast<double>(cells.all_reached_time());
                // One metric per cell-distance ring: its mean reach time.
                for (std::int64_t d = 0; d <= cells.max_cell_distance(); ++d) {
                    const double mean = cells.mean_reach_at_distance(d);
                    if (mean < 0.0) continue;
                    m[(d < 10 ? "reach_d0" : "reach_d") + std::to_string(d)] = mean;
                }
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    frontier_scenario,
    Scenario{
        .name = "frontier",
        .title = "speed of the informed frontier at the Theorem-2 radius",
        .claim = "the frontier advances <= (gamma log n)/2 per gamma^2/(144 log n) steps "
                 "(Lemma 7)",
        .params =
            std::vector<ParamSpec>{
                {"side", "32", "grid side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
            },
        .default_sweep = "side=32,48,64,96;k=16,32",
        .quick_sweep = "side=32,48;k=16",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                core::EngineConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.k = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
                cfg.radius = static_cast<std::int64_t>(graph::lower_bound_radius(cfg.n(), cfg.k));
                cfg.seed = seed;
                const double gamma = graph::island_gamma(cfg.n(), cfg.k);
                const double ln = std::log(static_cast<double>(cfg.n()));
                const auto window = std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(gamma * gamma / (144.0 * ln)));
                core::BroadcastProcess process{cfg};
                core::FrontierObserver frontier;
                frontier.on_step(process.view());  // x(0)
                const auto cap = core::bounds::default_max_steps(cfg.n(), cfg.k);
                while (!process.complete() && process.time() < cap) {
                    process.step();
                    frontier.on_step(process.view());
                }
                Metrics m;
                m["completed"] = process.complete() ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(process.time());
                m["window_advance"] = static_cast<double>(frontier.max_window_advance(window));
                return m;
            },
    });

}  // namespace

void link_scenarios_broadcast() {}

}  // namespace smn::exp
