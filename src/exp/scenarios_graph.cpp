// Visibility-graph scenarios: the percolation transition of one uniform
// placement, and the island sizes of walking agents below it (Lemma 6).
#include <algorithm>
#include <cmath>

#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "graph/percolation.hpp"
#include "graph/visibility.hpp"
#include "walk/ensemble.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    islands_scenario,
    Scenario{
        .name = "islands",
        .title = "largest island of k = n/16 walking agents over a horizon of steps",
        .claim = "islands of parameter gamma = sqrt(n/(4e^6 k)) hold <= log n agents w.h.p. "
                 "(Lemma 6)",
        .params =
            std::vector<ParamSpec>{
                {"side", "32", "grid side; n = side^2"},
                {"radius", "gamma", "island radius: an integer, or gamma (at least 1)"},
                {"steps", "2000", "horizon in steps (the paper's is 8 n log^2 n)"},
            },
        .default_sweep = "side=32,48,64,96,128",
        .quick_sweep = "side=32,48,64;steps=300",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto side = static_cast<grid::Coord>(p.get_int("side"));
                const std::int64_t n = std::int64_t{side} * side;
                // Density 1/16 keeps the system sparse while gamma stays ~constant.
                const auto k = static_cast<std::int32_t>(n / 16);
                const std::int64_t radius =
                    p.get_string("radius") == "gamma"
                        ? std::max<std::int64_t>(
                              1, static_cast<std::int64_t>(graph::island_gamma(n, k)))
                        : p.get_int("radius");
                const std::int64_t steps = p.get_int("steps");
                const auto g = grid::Grid2D::square(side);
                rng::Rng rng{seed};
                walk::AgentEnsemble agents{g, k, rng};
                graph::VisibilityGraphBuilder builder{g, radius};
                graph::DisjointSets dsu{static_cast<std::size_t>(k)};
                std::int64_t max_island = 0;
                for (std::int64_t t = 0; t <= steps; ++t) {
                    builder.build(agents.positions(), dsu);
                    max_island = std::max(max_island, graph::component_stats(dsu).max_size);
                    agents.step_all(rng);
                }
                Metrics m;
                m["max_island"] = static_cast<double>(max_island);
                m["radius"] = static_cast<double>(radius);
                m["steps"] = static_cast<double>(steps);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    percolation_scenario,
    Scenario{
        .name = "percolation",
        .title = "components of the visibility graph of one uniform placement",
        .claim = "a giant component emerges at r_c ~ sqrt(n/k) ([24, 25], Sec. 1)",
        .params =
            std::vector<ParamSpec>{
                {"side", "96", "grid side; n = side^2"},
                {"k", "576", "agent count: integer or log/sqrt/linear of n"},
                {"rfrac", "1", "radius as a fraction of r_c (rounded, at least 1)"},
            },
        .default_sweep = "side=96;k=576;rfrac=0.25,0.5,0.75,0.9,1,1.1,1.25,1.5,2,3",
        .quick_sweep = "side=48;k=144;rfrac=0.25,0.5,0.75,0.9,1,1.1,1.25,1.5,2,3",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto side = static_cast<grid::Coord>(p.get_int("side"));
                const std::int64_t n = std::int64_t{side} * side;
                const auto k = static_cast<std::int32_t>(p.get_count("k", n));
                const auto radius = std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(
                           p.get_double("rfrac") * graph::percolation_radius(n, k) + 0.5));
                const auto g = grid::Grid2D::square(side);
                rng::Rng rng{seed};
                walk::AgentEnsemble agents{g, k, rng};
                graph::VisibilityGraphBuilder builder{g, radius};
                graph::DisjointSets dsu{static_cast<std::size_t>(k)};
                builder.build(agents.positions(), dsu);
                const auto stats = graph::component_stats(dsu);
                Metrics m;
                m["largest_fraction"] = stats.largest_fraction;
                m["mean_size"] = stats.mean_size;
                m["components"] = static_cast<double>(stats.component_count);
                m["singleton_fraction"] = static_cast<double>(stats.singletons()) / k;
                m["radius"] = static_cast<double>(radius);
                return m;
            },
    });

}  // namespace

void link_scenarios_graph() {}

}  // namespace smn::exp
