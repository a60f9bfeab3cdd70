// colocation.hpp — the r = 0 exchange shared by the standalone models.
//
// TorusBroadcast, BarrierBroadcast and ChurnBroadcast run their own walk
// loops (wrap-around, obstacle-aware, with agent replacement) but exchange
// the rumor the same way: every node holding an informed agent informs all
// agents on it. Torus2D, ObstacleGrid and Grid2D all number nodes
// y·width + x, so one spatial::ColocationTable sized to the domain serves
// each. The flood draws no randomness and does not depend on agent order.
#pragma once

#include <cstdint>
#include <span>

#include "grid/point.hpp"
#include "spatial/colocation_table.hpp"

namespace smn::models {

/// Informs every agent that shares a node of `domain` with an informed
/// agent (`positions` and `informed` are indexed by agent id): one pass
/// claims the occupied nodes and flags those holding an informed agent,
/// a second informs the agents on flagged nodes. Returns the number of
/// agents newly informed.
template <typename Domain>
std::int32_t flood_colocated(spatial::ColocationTable& table, const Domain& domain,
                             std::span<const grid::Point> positions,
                             std::span<std::uint8_t> informed) {
    const auto pass = table.begin_pass();
    for (std::size_t a = 0; a < positions.size(); ++a) {
        const auto node = domain.node_id(positions[a]);
        (void)pass.claim(node, static_cast<std::int32_t>(a));
        if (informed[a] != 0) pass.flag(node);
    }
    std::int32_t newly = 0;
    for (std::size_t a = 0; a < positions.size(); ++a) {
        if (informed[a] == 0 && pass.flagged(domain.node_id(positions[a]))) {
            informed[a] = 1;
            ++newly;
        }
    }
    return newly;
}

}  // namespace smn::models
