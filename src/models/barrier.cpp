#include "models/barrier.hpp"

#include <stdexcept>

#include "models/colocation.hpp"

namespace smn::models {

BarrierBroadcast::BarrierBroadcast(const grid::ObstacleGrid& domain,
                                   const BarrierConfig& config)
    : domain_{domain},
      config_{config},
      rng_{config.seed},
      occupancy_{domain.base()} {
    if (config.k < 1) throw std::invalid_argument("BarrierBroadcast: k must be >= 1");
    if (domain.open_count() == 0) {
        throw std::invalid_argument("BarrierBroadcast: domain has no open nodes");
    }
    positions_.reserve(static_cast<std::size_t>(config.k));
    for (std::int32_t a = 0; a < config.k; ++a) {
        positions_.push_back(domain_.random_open_node(rng_));
    }
    informed_.assign(static_cast<std::size_t>(config.k), 0);
    informed_[0] = 1;
    informed_count_ = 1;
    exchange();  // t = 0 co-location flooding
}

void BarrierBroadcast::step() {
    ++t_;
    for (auto& p : positions_) p = walk::step(domain_, p, rng_, config_.walk);
    exchange();
}

std::optional<std::int64_t> BarrierBroadcast::run_until_complete(std::int64_t max_steps) {
    while (!complete()) {
        if (t_ >= max_steps) return std::nullopt;
        step();
    }
    return t_;
}

void BarrierBroadcast::exchange() {
    occupancy_.rebuild(positions_);
    informed_count_ += flood_colocated(occupancy_, informed_);
}

BarrierResult run_barrier_broadcast(const grid::ObstacleGrid& domain,
                                    const BarrierConfig& config, std::int64_t max_steps) {
    BarrierBroadcast process{domain, config};
    const auto tb = process.run_until_complete(max_steps);
    return BarrierResult{
        .completed = tb.has_value(),
        .broadcast_time = tb.value_or(-1),
        .informed_count = process.informed_count(),
        .k = config.k,
    };
}

}  // namespace smn::models
