#include "models/torus_broadcast.hpp"

#include <stdexcept>

#include "core/bounds.hpp"
#include "models/colocation.hpp"

namespace smn::models {

TorusBroadcast::TorusBroadcast(const TorusConfig& config)
    : config_{config},
      rng_{config.seed},
      torus_{grid::Torus2D::square(config.side)},
      occupancy_{grid::Grid2D::square(config.side)} {
    if (config.k < 1) throw std::invalid_argument("TorusBroadcast: k must be >= 1");
    positions_.reserve(static_cast<std::size_t>(config.k));
    for (std::int32_t a = 0; a < config.k; ++a) {
        const auto id =
            static_cast<grid::NodeId>(rng_.below(static_cast<std::uint64_t>(torus_.size())));
        positions_.push_back(torus_.point_of(id));
    }
    informed_.assign(static_cast<std::size_t>(config.k), 0);
    informed_[0] = 1;
    informed_count_ = 1;
    exchange();  // t = 0
}

void TorusBroadcast::step() {
    ++t_;
    for (auto& p : positions_) p = walk::step(torus_, p, rng_, config_.walk);
    exchange();
}

std::optional<std::int64_t> TorusBroadcast::run_until_complete(std::int64_t max_steps) {
    while (!complete()) {
        if (t_ >= max_steps) return std::nullopt;
        step();
    }
    return t_;
}

void TorusBroadcast::exchange() {
    occupancy_.rebuild(positions_);
    informed_count_ += flood_colocated(occupancy_, informed_);
}

TorusResult run_torus_broadcast(const TorusConfig& config, std::int64_t max_steps) {
    const std::int64_t cap =
        max_steps >= 0 ? max_steps
                       : core::bounds::default_max_steps(
                             std::int64_t{config.side} * config.side, config.k);
    TorusBroadcast process{config};
    const auto tb = process.run_until_complete(cap);
    return TorusResult{.completed = tb.has_value(), .broadcast_time = tb.value_or(-1)};
}

}  // namespace smn::models
