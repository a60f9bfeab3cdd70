#include "exp/scenarios.hpp"

namespace smn::exp {

void register_builtin_scenarios() {
    link_scenarios_broadcast();
    link_scenarios_gossip();
    link_scenarios_walk();
    link_scenarios_churn();
    link_scenarios_models();
    link_scenarios_graph();
}

}  // namespace smn::exp
