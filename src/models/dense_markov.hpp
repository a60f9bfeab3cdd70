// dense_markov.hpp — the dense-regime baseline of Clementi et al. [7, 8].
//
// The paper positions its result against the "stationary Markovian evolving
// graph" model: k = Θ(n) agents on the n-node grid where, in each step,
// an agent (a) exchanges information with all agents at distance ≤ R
// (one hop of flooding per step — not full-component flooding), and
// (b) jumps to a uniformly random node at distance ≤ ρ.
//
// With ρ = O(R) and R = Ω(√log n) the broadcast time is Θ(√n/R) w.h.p.
// [7]; with ρ = Ω(max{R, √log n}) it is O(√n/ρ + log n) [8]. These bounds
// rely on R+ρ = Ω(√log n) making the step-reachability graph connected —
// precisely the assumption the main paper drops.
//
// The exchange is one 2-D prefix count per round: in the 45°-rotated
// coordinates u = x + y, v = x − y the L1 ball of radius R is an
// axis-aligned square, so counting the round's senders per (u, v) cell
// and taking prefix sums tells each uninformed agent in O(1) whether a
// sender is within R — O(side² + k) = O(k) per round at k = Θ(n).
//
// The dense_baseline lab scenario reproduces the Θ(√n/R) series; the
// contrast with the sparse regime (radius-independent T_B) is the paper's
// headline.
#pragma once

#include <cstdint>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"

namespace smn::models {

/// Parameters of the dense Markovian-evolving-graph broadcast.
struct DenseConfig {
    grid::Coord side{32};     ///< grid side; n = side²
    std::int32_t k{512};      ///< number of agents (dense: k = Θ(n))
    std::int64_t R{4};        ///< exchange radius (one hop per step)
    std::int64_t rho{1};      ///< per-step jump radius
    std::int32_t source{0};
    std::uint64_t seed{1};

    [[nodiscard]] std::int64_t n() const noexcept { return std::int64_t{side} * side; }
};

/// Result of one dense-model broadcast.
struct DenseResult {
    bool completed{false};
    std::int64_t broadcast_time{-1};
};

/// Runs one replication; max_steps = −1 → generous default ∝ √n/R + log n.
[[nodiscard]] DenseResult run_dense_broadcast(const DenseConfig& config,
                                              std::int64_t max_steps = -1);

/// Uniformly random node at L1 distance ≤ rho from p, clamped to the grid
/// (exposed for tests). rho = 0 returns p.
[[nodiscard]] grid::Point jump_within(const grid::Grid2D& grid, grid::Point p, std::int64_t rho,
                                      rng::Rng& rng);

}  // namespace smn::models
