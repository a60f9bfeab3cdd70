#include "models/predator_prey.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bounds.hpp"
#include "walk/ensemble.hpp"

namespace smn::models {

PredatorPreyResult run_predator_prey(const PredatorPreyConfig& config, std::int64_t max_steps) {
    if (config.predators < 1 || config.prey < 1) {
        throw std::invalid_argument("predator_prey: need >= 1 predator and >= 1 prey");
    }
    if (config.catch_radius < 0) {
        throw std::invalid_argument("predator_prey: catch_radius must be >= 0");
    }

    const auto grid = grid::Grid2D::square(config.side);
    rng::Rng rng{config.seed};
    walk::AgentEnsemble predators{grid, config.predators, rng, config.walk};
    walk::AgentEnsemble prey{grid, config.prey, rng, config.walk};

    const std::int64_t cap =
        max_steps >= 0 ? max_steps
                       : std::max<std::int64_t>(
                             4096, 64 * static_cast<std::int64_t>(core::bounds::extinction_scale(
                                            config.n(), config.predators)) +
                                       16 * config.side);

    PredatorPreyResult result;
    result.catch_times.assign(static_cast<std::size_t>(config.prey), -1);
    std::vector<std::uint8_t> alive(static_cast<std::size_t>(config.prey), 1);
    std::int64_t alive_count = config.prey;

    const auto sweep = [&](std::int64_t t) {
        // A prey is caught if any predator is within catch_radius of it.
        const auto hunters = predators.positions();
        for (std::int32_t p = 0; p < config.prey; ++p) {
            if (!alive[static_cast<std::size_t>(p)]) continue;
            const auto here = prey.position(p);
            if (std::any_of(hunters.begin(), hunters.end(), [&](grid::Point hunter) {
                    return grid::manhattan(here, hunter) <= config.catch_radius;
                })) {
                alive[static_cast<std::size_t>(p)] = 0;
                result.catch_times[static_cast<std::size_t>(p)] = t;
                --alive_count;
            }
        }
    };

    sweep(0);  // initial co-locations count (t = 0), as in the meeting model
    std::int64_t t = 0;
    while (alive_count > 0 && t < cap) {
        ++t;
        predators.step_all(rng);
        if (config.prey_moves) {
            // Only surviving prey keep walking (caught prey leave the system).
            prey.step_subset(rng, alive);
        }
        sweep(t);
    }

    result.extinct = alive_count == 0;
    result.extinction_time = result.extinct ? t : -1;
    result.survivors = alive_count;
    return result;
}

}  // namespace smn::models
