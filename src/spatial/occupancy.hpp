// occupancy.hpp — node → agents map for co-location (r = 0) exchanges.
//
// When the transmission radius is zero (Sec. 3.1 proves the upper bound in
// exactly this regime), two agents communicate iff they sit on the same
// node; the standalone torus, barrier and churn models exchange through
// this map. OccupancyMap groups agent ids by node id using intrusive
// singly linked lists over two flat arrays (head per node, next per
// agent), so a full rebuild costs O(k) and no allocation; clearing uses a
// dirty-node log so it is O(#occupied nodes), never O(n).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"

namespace smn::spatial {

/// Sentinel for "no agent".
inline constexpr std::int32_t kNone = -1;

/// Groups agents by the node they currently occupy.
class OccupancyMap {
public:
    explicit OccupancyMap(const grid::Grid2D& grid)
        : grid_{grid}, head_(static_cast<std::size_t>(grid.size()), kNone) {}

    /// Rebuilds the map from current agent positions (index = agent id).
    void rebuild(std::span<const grid::Point> positions) {
        for (const auto node : dirty_) head_[static_cast<std::size_t>(node)] = kNone;
        dirty_.clear();
        next_.resize(positions.size());  // every entry is written below
        for (std::size_t a = 0; a < positions.size(); ++a) {
            const auto node = grid_.node_id(positions[a]);
            auto& head = head_[static_cast<std::size_t>(node)];
            if (head == kNone) dirty_.push_back(node);
            next_[a] = head;
            head = static_cast<std::int32_t>(a);
        }
    }

    /// Calls `fn(agent_id)` for every agent on node `node`.
    template <typename Fn>
    void for_each_on(grid::NodeId node, Fn&& fn) const {
        for (auto a = head_[static_cast<std::size_t>(node)]; a != kNone;
             a = next_[static_cast<std::size_t>(a)]) {
            fn(a);
        }
    }

    /// Calls `fn(agent_id)` for every agent on node `p`.
    template <typename Fn>
    void for_each_at(grid::Point p, Fn&& fn) const {
        for_each_on(grid_.node_id(p), fn);
    }

    /// First agent on node `p` (kNone if empty).
    [[nodiscard]] std::int32_t first_at(grid::Point p) const noexcept {
        return head_[static_cast<std::size_t>(grid_.node_id(p))];
    }

    /// Number of agents on node `p`.
    [[nodiscard]] int count_at(grid::Point p) const noexcept {
        int c = 0;
        for (auto a = first_at(p); a != kNone; a = next_[static_cast<std::size_t>(a)]) ++c;
        return c;
    }

    /// Nodes that currently host at least one agent.
    [[nodiscard]] std::span<const grid::NodeId> occupied_nodes() const noexcept {
        return dirty_;
    }

    [[nodiscard]] const grid::Grid2D& grid() const noexcept { return grid_; }

private:
    grid::Grid2D grid_;
    std::vector<std::int32_t> head_;   ///< node id -> first agent
    std::vector<std::int32_t> next_;   ///< agent id -> next agent on node
    std::vector<grid::NodeId> dirty_;  ///< occupied nodes (for O(k) clears)
};

}  // namespace smn::spatial
