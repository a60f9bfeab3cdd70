// predator_prey.hpp — the random predator–prey system of Sec. 4 (ref [9]).
//
// k predators and m prey perform independent random walks on the grid
// (prey can optionally be static). A prey is caught the first time it is
// within `catch_radius` of some predator after a synchronized step (radius
// 0 = co-location, matching the paper's meeting events). The extinction
// time is the first time all prey are caught; the paper's techniques give
// the high-probability upper bound O((n log²n)/k) for k = Ω(log n).
#pragma once

#include <cstdint>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "walk/step.hpp"

namespace smn::models {

/// Parameters for a predator–prey run.
struct PredatorPreyConfig {
    grid::Coord side{64};          ///< grid side; n = side²
    std::int32_t predators{16};    ///< k
    std::int32_t prey{16};         ///< m
    std::int64_t catch_radius{0};  ///< capture range (0 = same node)
    bool prey_moves{true};         ///< false: prey frozen at start nodes
    walk::WalkKind walk{walk::WalkKind::kLazyPaper};
    std::uint64_t seed{1};

    [[nodiscard]] std::int64_t n() const noexcept { return std::int64_t{side} * side; }
};

/// Result of a predator–prey run.
struct PredatorPreyResult {
    bool extinct{false};
    std::int64_t extinction_time{-1};          ///< first t with all prey caught
    std::vector<std::int64_t> catch_times;     ///< per prey; −1 if survived
    std::int64_t survivors{0};                 ///< prey alive at the cap
};

/// Simulates until extinction or `max_steps` (−1 → a generous default cap
/// proportional to n·log²n/k).
[[nodiscard]] PredatorPreyResult run_predator_prey(const PredatorPreyConfig& config,
                                                   std::int64_t max_steps = -1);

}  // namespace smn::models
