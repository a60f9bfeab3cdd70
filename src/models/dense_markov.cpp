#include "models/dense_markov.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "walk/ensemble.hpp"

namespace smn::models {

grid::Point jump_within(const grid::Grid2D& grid, grid::Point p, std::int64_t rho,
                        rng::Rng& rng) {
    if (rho == 0) return p;
    // Rejection-sample a lattice offset in the L1 ball of radius rho
    // (acceptance ≥ 1/2), then clamp to the grid. Clamping slightly biases
    // boundary nodes, exactly like the reflecting dynamics of [7]'s
    // simulations; interior behaviour is uniform as specified.
    for (;;) {
        const auto dx = rng.range(-rho, rho);
        const auto dy = rng.range(-rho, rho);
        if (std::abs(dx) + std::abs(dy) > rho) continue;
        return grid.clamp(grid::Point{static_cast<grid::Coord>(p.x + dx),
                                      static_cast<grid::Coord>(p.y + dy)});
    }
}

DenseResult run_dense_broadcast(const DenseConfig& config, std::int64_t max_steps) {
    if (config.k < 1) throw std::invalid_argument("dense: k must be >= 1");
    if (config.R < 0 || config.rho < 0) throw std::invalid_argument("dense: R, rho >= 0");
    if (config.source < 0 || config.source >= config.k) {
        throw std::invalid_argument("dense: source out of range");
    }

    const auto grid = grid::Grid2D::square(config.side);
    rng::Rng rng{config.seed};
    walk::AgentEnsemble agents{grid, config.k, rng, walk::WalkKind::kLazyPaper};

    const std::int64_t cap =
        max_steps >= 0
            ? max_steps
            : std::max<std::int64_t>(
                  4096, 256 * (static_cast<std::int64_t>(
                                   std::sqrt(static_cast<double>(config.n()))) /
                                   std::max<std::int64_t>(1, config.R) +
                               64));

    std::vector<std::uint8_t> informed(static_cast<std::size_t>(config.k), 0);
    informed[static_cast<std::size_t>(config.source)] = 1;
    std::int32_t informed_count = 1;

    // One-hop exchange: every agent informed at the *start* of the round
    // informs all agents within R. Agents informed during the round do not
    // propagate until the next step (no transitive flooding — the [7]
    // model). In the rotated coordinates u = x + y, v = x − y + side − 1
    // the L1 ball of radius R is the square |Δu|, |Δv| ≤ R, so 2-D prefix
    // counts of the senders over (u, v) answer each agent in O(1).
    const auto side = std::int64_t{config.side};
    const auto last = 2 * side - 2;                      // largest u and v
    const auto R = std::min(config.R, grid.diameter());  // keeps u + R in range
    const auto dim = static_cast<std::size_t>(last + 2);
    std::vector<std::int32_t> senders(dim * dim);  // row and column 0 stay 0
    const auto at = [&](std::int64_t u, std::int64_t v) -> std::int32_t& {
        return senders[static_cast<std::size_t>(u) * dim + static_cast<std::size_t>(v)];
    };
    const auto exchange = [&] {
        std::fill(senders.begin(), senders.end(), 0);
        for (std::int32_t a = 0; a < config.k; ++a) {
            const auto p = agents.position(a);
            if (informed[static_cast<std::size_t>(a)]) {
                ++at(std::int64_t{p.x} + p.y + 1, std::int64_t{p.x} - p.y + side);
            }
        }
        for (std::int64_t u = 1; u <= last + 1; ++u) {
            for (std::int64_t v = 1; v <= last + 1; ++v) {
                at(u, v) += at(u - 1, v) + at(u, v - 1) - at(u - 1, v - 1);
            }
        }
        for (std::int32_t a = 0; a < config.k; ++a) {
            if (informed[static_cast<std::size_t>(a)]) continue;
            const auto p = agents.position(a);
            const auto u = std::int64_t{p.x} + p.y;
            const auto v = std::int64_t{p.x} - p.y + side - 1;
            const auto u_lo = std::max<std::int64_t>(u - R, 0);
            const auto v_lo = std::max<std::int64_t>(v - R, 0);
            const auto u_hi = std::min(u + R, last) + 1;
            const auto v_hi = std::min(v + R, last) + 1;
            if (at(u_hi, v_hi) - at(u_lo, v_hi) - at(u_hi, v_lo) + at(u_lo, v_lo) > 0) {
                informed[static_cast<std::size_t>(a)] = 1;
                ++informed_count;
            }
        }
    };

    exchange();  // t = 0
    std::int64_t t = 0;
    while (informed_count < config.k && t < cap) {
        ++t;
        // (b) every agent jumps within rho ...
        for (std::int32_t a = 0; a < config.k; ++a) {
            agents.set_position(a, jump_within(grid, agents.position(a), config.rho, rng));
        }
        // ... then (a) one round of R-range exchange.
        exchange();
    }

    return DenseResult{
        .completed = informed_count == config.k,
        .broadcast_time = informed_count == config.k ? t : -1,
    };
}

}  // namespace smn::models
