// colocation.hpp — the r = 0 exchange shared by the standalone models.
//
// TorusBroadcast, BarrierBroadcast and ChurnBroadcast run their own walk
// loops (a wrap-around walk, an obstacle-aware walk, a walk with agent
// replacement) but exchange the rumor the same way: agents on one node
// form a component, and every node holding an informed agent informs all
// agents on it. Torus2D, ObstacleGrid and Grid2D number nodes alike
// (y·width + x), so one spatial::OccupancyMap over a Grid2D of the same
// dimensions groups the agents of any of them. The flood draws no
// randomness and its result does not depend on the order of the nodes.
#pragma once

#include <cstdint>
#include <span>

#include "spatial/occupancy.hpp"

namespace smn::models {

/// Informs every agent that shares a node of `occupancy` with an informed
/// agent; `informed` is indexed by agent id. Returns the number of agents
/// newly informed.
inline std::int32_t flood_colocated(const spatial::OccupancyMap& occupancy,
                                    std::span<std::uint8_t> informed) {
    std::int32_t newly = 0;
    for (const auto node : occupancy.occupied_nodes()) {
        bool any_informed = false;
        occupancy.for_each_on(node, [&](std::int32_t a) {
            any_informed = any_informed || informed[static_cast<std::size_t>(a)] != 0;
        });
        if (!any_informed) continue;
        occupancy.for_each_on(node, [&](std::int32_t a) {
            auto& flag = informed[static_cast<std::size_t>(a)];
            newly += flag == 0 ? 1 : 0;
            flag = 1;
        });
    }
    return newly;
}

}  // namespace smn::models
