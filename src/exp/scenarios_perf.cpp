// Performance scenarios: fixed-step micro-benchmarks of the simulation hot
// path. Unlike the science scenarios these do not run to completion — they
// execute an exact number of engine steps so the lab's throughput meter
// (`timing.steps_per_s` with --timings) measures the step loop itself,
// comparable across commits on one machine. scripts/crash_resume.sh runs
// this scenario with --journal to bound the journal's own I/O time;
// the end-to-end performance gate is paperbench (scripts/paperbench_ab.py).
#include <cmath>
#include <stdexcept>

#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "graph/percolation.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    step_throughput_scenario,
    Scenario{
        .name = "step_throughput",
        .title = "hot-path micro-benchmark: exact-step-count broadcast engine run",
        .claim = "quantifies steps/s of move + G_t(r) rebuild + exchange (perf, not science)",
        .params =
            std::vector<ParamSpec>{
                {"side", "256", "grid side; n = side^2"},
                {"k", "4096", "agent count: integer or log/sqrt/linear of n"},
                {"radius", "rc", "transmission radius r: integer, or rc = percolation scale"},
                {"steps", "200", "exact number of engine steps per replication"},
                {"mobility", "all", "which agents move: all, or frog (informed only)"},
            },
        .default_sweep = "side=256;k=4096;radius=rc;steps=200;mobility=all,frog",
        .quick_sweep = "side=64;k=256;radius=rc;steps=200;mobility=all",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                core::EngineConfig cfg;
                cfg.side = static_cast<grid::Coord>(p.get_int("side"));
                cfg.k = static_cast<std::int32_t>(p.get_count("k", cfg.n()));
                const auto& radius = p.get_string("radius");
                cfg.radius = radius == "rc"
                                 ? std::llround(graph::percolation_radius(cfg.n(), cfg.k))
                                 : p.get_int("radius");
                const auto& mobility = p.get_string("mobility");
                if (mobility == "frog") {
                    cfg.mobility = core::Mobility::kInformedOnly;
                } else if (mobility != "all") {
                    throw std::invalid_argument("step_throughput: mobility must be all or frog, got '" +
                                                mobility + "'");
                }
                cfg.seed = seed;
                const auto steps = p.get_int("steps");
                if (steps < 1) {
                    throw std::invalid_argument("step_throughput: steps must be >= 1");
                }
                core::BroadcastProcess process{cfg};
                process.set_phase_timing(true);
                for (std::int64_t s = 0; s < steps; ++s) process.step();
                Metrics m;
                m["steps"] = static_cast<double>(steps);
                m["completed"] = process.complete() ? 1.0 : 0.0;
                m["informed_fraction"] = static_cast<double>(process.rumor().informed_count()) /
                                         static_cast<double>(cfg.k);
                m["radius"] = static_cast<double>(cfg.radius);
                // Reserved "timing." prefix: the runner diverts these into
                // the (host-dependent, --timings-only) phase breakdown so
                // perf PRs can attribute wins to walk / index / components
                // / exchange.
                const auto phases = process.phase_timings();
                m["timing.walk_s"] = phases.walk_s;
                m["timing.index_s"] = phases.index_s;
                m["timing.components_s"] = phases.components_s;
                m["timing.exchange_s"] = phases.exchange_s;
                // Reserved "obs." prefix: diverted into the (--counters-only)
                // counters block the same way, next to the engine counters
                // the process flushes into the runner's sink when it dies.
                m["obs.agents"] = static_cast<double>(cfg.k);
                return m;
            },
    });

}  // namespace

void link_scenarios_perf() {}

}  // namespace smn::exp
