// meeting.hpp — probes for the paper's core random-walk lemmas.
//
// These small drivers directly instantiate the events whose probabilities
// Lemmas 1 and 3 bound:
//
//  * hit_within   (Lemma 1)  — does a walk started at v₀ visit v within
//                              ||v−v₀||² steps?  P ≥ c₁/log||v−v₀||.
//  * meet_within  (Lemma 3)  — do two walks at initial distance d meet at
//                              the same node, *inside the lens*
//                              D = {x : ||x−a₀|| ≤ d and ||x−b₀|| ≤ d},
//                              within T = d² steps?  P ≥ c₃/log d.
//
// The hitting_probability and meeting_probability lab scenarios estimate
// these probabilities over many replications; the claim tests assert that
// P·log d stays bounded below by a constant, as the lemmas predict.
#pragma once

#include <cstdint>
#include <optional>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "walk/step.hpp"

namespace smn::walk {

/// Outcome of a hitting probe.
struct HitResult {
    bool hit{false};              ///< target visited within the budget
    std::int64_t hit_time{-1};    ///< step of first visit, −1 if none
};

/// Runs a single walk from `start` for at most `max_steps` steps and
/// reports whether (and when) it first visits `target`. Visiting at time 0
/// (start == target) counts as an immediate hit.
[[nodiscard]] HitResult hit_within(const grid::Grid2D& grid, grid::Point start,
                                   grid::Point target, std::int64_t max_steps, rng::Rng& rng,
                                   WalkKind kind = WalkKind::kLazyPaper);

/// Outcome of a meeting probe.
struct MeetResult {
    bool met{false};               ///< walks co-located within the budget
    bool met_in_lens{false};       ///< ... and the meeting node was in D
    std::int64_t meet_time{-1};    ///< step of first co-location, −1 if none
    grid::Point meet_node{};       ///< where they first met (if met)
};

/// Runs two independent walks from `a0` and `b0` for at most `max_steps`
/// synchronized steps; reports the first time a_t == b_t, and whether that
/// node lies in the lens D (within d = ||a0−b0|| of both starts), which is
/// the event of Lemma 3. Starting co-located counts as meeting at t = 0.
[[nodiscard]] MeetResult meet_within(const grid::Grid2D& grid, grid::Point a0, grid::Point b0,
                                     std::int64_t max_steps, rng::Rng& rng,
                                     WalkKind kind = WalkKind::kLazyPaper);

}  // namespace smn::walk
