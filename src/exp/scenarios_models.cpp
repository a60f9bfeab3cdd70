// Model scenarios from Sec. 4 and beyond: coverage during a broadcast,
// the dense-regime baseline of [7], predator-prey extinction, and
// broadcast across a mobility barrier.
#include <algorithm>

#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "grid/obstacle_grid.hpp"
#include "models/barrier.hpp"
#include "models/coverage.hpp"
#include "models/dense_markov.hpp"
#include "models/predator_prey.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    coverage_scenario,
    Scenario{
        .name = "coverage",
        .title = "coverage time T_C of informed agents vs broadcast time T_B (r = 0)",
        .claim = "T_C ~= T_B = Theta~(n/sqrt(k)) in the dynamic model (Sec. 4)",
        .params =
            std::vector<ParamSpec>{
                {"side", "48", "grid side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
            },
        .default_sweep = "side=48;k=4,8,16,32,64,128",
        .quick_sweep = "side=24;k=4,8,16,32",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                core::EngineConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.k = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
                cfg.seed = seed;
                const std::int64_t cap = 1 << 28;
                const auto res = models::run_broadcast_with_coverage(cfg, cap);
                const bool both = res.broadcast_completed && res.covered;
                Metrics m;
                m["covered"] = res.covered ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(
                    both ? std::max(res.broadcast_time, res.coverage_time) : cap);
                if (res.broadcast_completed) {
                    m["broadcast_time"] = static_cast<double>(res.broadcast_time);
                }
                if (res.covered) m["coverage_time"] = static_cast<double>(res.coverage_time);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    dense_scenario,
    Scenario{
        .name = "dense_baseline",
        .title = "dense regime k = n/2 with exchange radius R (Clementi et al. [7])",
        .claim = "T_B = Theta(sqrt(n)/R) for rho = O(R): radius-limited, unlike the sparse "
                 "regime",
        .params =
            std::vector<ParamSpec>{
                {"side", "48", "grid side; n = side^2; k = n/2 agents, jump radius 1"},
                {"R", "4", "exchange radius (one hop per step)"},
            },
        .default_sweep = "side=48;R=1,2,3,4,6,8,12,16",
        .quick_sweep = "side=24;R=1,2,3,4,6,8,12,16",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                models::DenseConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.k = static_cast<std::int32_t>(cfg.n() / 2);
                cfg.R = p.get_int("R");
                cfg.seed = seed;
                const std::int64_t cap = 1 << 26;
                const auto res = models::run_dense_broadcast(cfg, cap);
                Metrics m;
                m["completed"] = res.completed ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(res.completed ? res.broadcast_time : cap);
                if (res.completed) m["broadcast_time"] = static_cast<double>(res.broadcast_time);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    predator_prey_scenario,
    Scenario{
        .name = "predator_prey",
        .title = "extinction time of 16 prey hunted by k walking predators",
        .claim = "extinction = O(n log^2 n / k) for k = Omega(log n) predators (Sec. 4, [9])",
        .params =
            std::vector<ParamSpec>{
                {"side", "48", "grid side; n = side^2"},
                {"k", "16", "predator count: integer or log/sqrt/linear of n"},
                {"prey_moves", "1", "1: prey walk too, 0: prey frozen at their start nodes"},
            },
        .default_sweep = "side=48;k=4,8,16,32,64,128;prey_moves=1,0",
        .quick_sweep = "side=24;k=4,8,16,32;prey_moves=1,0",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                models::PredatorPreyConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.predators = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
                cfg.prey_moves = p.get_int("prey_moves") != 0;
                cfg.seed = seed;
                const std::int64_t cap = 1 << 28;
                const auto res = models::run_predator_prey(cfg, cap);
                Metrics m;
                m["extinct"] = res.extinct ? 1.0 : 0.0;
                m["survivors"] = static_cast<double>(res.survivors);
                m["steps"] = static_cast<double>(res.extinct ? res.extinction_time : cap);
                if (res.extinct) m["extinction_time"] = static_cast<double>(res.extinction_time);
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    barrier_scenario,
    Scenario{
        .name = "barriers",
        .title = "broadcast across a vertical wall with a gap (beyond the paper, r = 0)",
        .claim = "narrower gaps bottleneck the meeting process; a sealed wall partitions "
                 "the system (Sec. 4 future work)",
        .params =
            std::vector<ParamSpec>{
                {"side", "48", "grid side; the wall stands at x = side/2"},
                {"k", "32", "agent count: integer or log/sqrt/linear of n"},
                {"gap", "open", "width of the centred opening in the wall; open: no wall"},
            },
        .default_sweep = "side=48;k=32;gap=open,16,8,4,2,1,0",
        .quick_sweep = "side=32;k=16;gap=open,16,8,4,2,1,0",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                models::BarrierConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.k = static_cast<std::int32_t>(
                    p.get_count("k", std::int64_t{cfg.side} * cfg.side));
                cfg.seed = seed;
                const bool open = p.get_string("gap") == "open";
                const auto gap = open ? std::int64_t{cfg.side} : p.get_int("gap");
                const auto gap_lo = static_cast<grid::Coord>((cfg.side - gap) / 2);
                const auto domain =
                    open ? grid::ObstacleGrid::square(cfg.side)
                         : grid::ObstacleGrid::with_vertical_wall(
                               cfg.side, static_cast<grid::Coord>(cfg.side / 2), gap_lo,
                               static_cast<grid::Coord>(gap_lo + gap));
                // A sealed wall never completes; a short cap shows the split.
                const std::int64_t cap = gap == 0 ? 1 << 16 : 1 << 22;
                const auto res = models::run_barrier_broadcast(domain, cfg, cap);
                Metrics m;
                m["completed"] = res.completed ? 1.0 : 0.0;
                m["informed"] = static_cast<double>(res.informed_count);
                m["steps"] = static_cast<double>(res.completed ? res.broadcast_time : cap);
                if (res.completed) m["broadcast_time"] = static_cast<double>(res.broadcast_time);
                return m;
            },
    });

}  // namespace

void link_scenarios_models() {}

}  // namespace smn::exp
