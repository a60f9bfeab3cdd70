// meeting_time.hpp — first-meeting times of two independent walks.
//
// Sec. 1.1 discusses the general infection bound of Dimitriou et al. [10],
// O(t* log k), where t* is the MAXIMUM over starting positions of the
// expected first-meeting time of two walks — O(n log n) on the grid by
// Aldous–Fill [1]. These helpers measure first-meeting times directly:
// the meeting_time lab scenario (E21) shows t̄(n) ~ n log n and locates
// the worst starting geometry (opposite corners).
#pragma once

#include <cstdint>
#include <optional>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "walk/step.hpp"

namespace smn::walk {

/// First time two walks from a0/b0 co-locate, or nullopt if `cap` elapses.
/// Co-location at t = 0 returns 0.
[[nodiscard]] inline std::optional<std::int64_t> first_meeting_time(
    const grid::Grid2D& grid, grid::Point a0, grid::Point b0, std::int64_t cap, rng::Rng& rng,
    WalkKind kind = WalkKind::kLazyPaper) {
    if (a0 == b0) return 0;
    grid::Point a = a0;
    grid::Point b = b0;
    for (std::int64_t t = 1; t <= cap; ++t) {
        a = step(grid, a, rng, kind);
        b = step(grid, b, rng, kind);
        if (a == b) return t;
    }
    return std::nullopt;
}

/// Mean first-meeting time over `reps` trials from fixed starts; trials
/// that exceed `cap` contribute `cap` (so the estimate is a lower bound
/// when truncation occurs — callers should pick cap ≫ n log n).
[[nodiscard]] inline double mean_meeting_time(const grid::Grid2D& grid, grid::Point a0,
                                              grid::Point b0, std::int64_t cap, int reps,
                                              rng::Rng& rng,
                                              WalkKind kind = WalkKind::kLazyPaper) {
    double total = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        total += static_cast<double>(first_meeting_time(grid, a0, b0, cap, rng, kind).value_or(cap));
    }
    return total / reps;
}

}  // namespace smn::walk
