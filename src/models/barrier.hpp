// barrier.hpp — broadcast in domains with mobility barriers (the paper's
// stated future work, Sec. 4 closing paragraph).
//
// Same dissemination semantics as the core model — synchronized lazy
// walks, rumor floods every co-location group per step (`r = 0`) — but on
// an ObstacleGrid whose blocked nodes the agents cannot enter. A wall with
// a gap makes the *meeting* process squeeze through a bottleneck; a sealed
// wall partitions the system and broadcast can never complete beyond the
// source's side.
//
// (Communication stays co-location based, so mobility barriers are also
// communication barriers here; modelling r > 0 radio around corners would
// need a line-of-sight model the paper does not define.)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "grid/obstacle_grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "spatial/colocation_table.hpp"
#include "walk/step.hpp"

namespace smn::models {

/// Parameters of a barrier-domain broadcast.
struct BarrierConfig {
    grid::Coord side{48};
    std::int32_t k{32};
    std::uint64_t seed{1};
    walk::WalkKind walk{walk::WalkKind::kLazyPaper};
};

/// Result of a barrier-domain broadcast run.
struct BarrierResult {
    bool completed{false};
    std::int64_t broadcast_time{-1};
    std::int32_t informed_count{0};  ///< informed agents when the run ended
    std::int32_t k{0};
};

/// Single-rumor broadcast on an obstacle grid (r = 0 exchange).
class BarrierBroadcast {
public:
    /// Agents placed uniformly over *open* nodes; agent 0 is the source.
    BarrierBroadcast(const grid::ObstacleGrid& domain, const BarrierConfig& config);

    void step();
    [[nodiscard]] bool complete() const noexcept { return informed_count_ == config_.k; }
    [[nodiscard]] std::int64_t time() const noexcept { return t_; }
    [[nodiscard]] std::int32_t informed_count() const noexcept { return informed_count_; }
    [[nodiscard]] bool is_informed(std::int32_t a) const noexcept {
        return informed_[static_cast<std::size_t>(a)] != 0;
    }
    [[nodiscard]] grid::Point position(std::int32_t a) const noexcept {
        return positions_[static_cast<std::size_t>(a)];
    }

    /// Steps until complete or `max_steps`; returns T_B or nullopt.
    std::optional<std::int64_t> run_until_complete(std::int64_t max_steps);

private:
    void exchange();

    grid::ObstacleGrid domain_;
    BarrierConfig config_;
    rng::Rng rng_;
    std::vector<grid::Point> positions_;
    std::vector<std::uint8_t> informed_;
    std::int32_t informed_count_{0};
    std::int64_t t_{0};
    spatial::ColocationTable colocation_;  ///< over the domain's node ids
};

/// Convenience driver.
[[nodiscard]] BarrierResult run_barrier_broadcast(const grid::ObstacleGrid& domain,
                                                  const BarrierConfig& config,
                                                  std::int64_t max_steps);

}  // namespace smn::models
