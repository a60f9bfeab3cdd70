// Churn scenario: broadcast under per-step agent replacement (robustness
// extension beyond the paper; see models/colocation.hpp for the two regimes).
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "grid/grid.hpp"
#include "models/colocation.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    churn_scenario,
    Scenario{
        .name = "churn",
        .title = "broadcast under agent churn (replacement rate p)",
        .claim = "relocation churn accelerates T_B; knowledge-resetting churn "
                 "risks rumor extinction",
        .params =
            std::vector<ParamSpec>{
                {"side", "24", "grid side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
                {"rate", "0.001", "per-agent per-step replacement probability"},
                {"reset", "1", "1: replacements arrive uninformed, 0: relocation only"},
                {"cap", "4194304", "step cap per replication"},
            },
        .default_sweep = "side=24;k=16;rate=0,0.0005,0.005;reset=0,1",
        .quick_sweep = "side=12;k=8;rate=0,0.005;reset=1",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto side = static_cast<grid::Coord>(p.get_int("side"));
                models::ColocationConfig cfg;
                cfg.k = static_cast<std::int32_t>(p.get_count("k", std::int64_t{side} * side));
                cfg.churn_rate = p.get_double("rate");
                cfg.reset_knowledge = p.get_int("reset") != 0;
                cfg.seed = seed;
                const auto res = models::ColocationBroadcast{grid::Grid2D::square(side), cfg}.run(
                    p.get_int("cap"));
                Metrics m;
                m["completed"] = res.completed ? 1.0 : 0.0;
                m["extinct"] = res.extinct ? 1.0 : 0.0;
                m["replacements"] = static_cast<double>(res.replacements);
                m["steps"] = static_cast<double>(res.steps);
                if (res.completed) m["broadcast_time"] = static_cast<double>(res.steps);
                return m;
            },
    });

}  // namespace

void link_scenarios_churn() {}

}  // namespace smn::exp
