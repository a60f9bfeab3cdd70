// step.hpp — single-step kernels for random walks on the grid.
//
// The paper's mobility model (Sec. 2): at each synchronized time step an
// agent at node v with n_v ∈ {2,3,4} neighbors moves to each neighbor with
// probability 1/5 and stays put with probability 1 − n_v/5. This choice
// makes the uniform distribution over nodes *stationary* (each directed
// edge carries flow 1/(5n) both ways), which the analysis leans on ("at any
// time step the agents are placed uniformly and independently at random").
//
// Two ablation kernels are provided:
//  * kSimple    — classic simple random walk (uniform over neighbors, never
//                 stays): stationary distribution proportional to degree.
//  * kLazyHalf  — stay with probability 1/2, else uniform neighbor: the
//                 standard lazy walk used e.g. by cover-time literature.
#pragma once

#include <array>
#include <cstdint>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"

namespace smn::walk {

/// Selects the single-step transition rule.
enum class WalkKind : std::uint8_t {
    kLazyPaper,  ///< paper's rule: each neighbor w.p. 1/5, stay otherwise
    kSimple,     ///< uniform neighbor, never stays
    kLazyHalf,   ///< stay w.p. 1/2, else uniform neighbor
};

[[nodiscard]] constexpr const char* walk_kind_name(WalkKind kind) noexcept {
    switch (kind) {
        case WalkKind::kLazyPaper: return "lazy-1/5";
        case WalkKind::kSimple: return "simple";
        case WalkKind::kLazyHalf: return "lazy-1/2";
    }
    return "?";
}

/// One lattice displacement of a batched walk kernel.
struct StepDelta {
    std::int8_t dx{0};
    std::int8_t dy{0};
};

/// Direction table for the branch-light batched kernels. Entry
/// [mask * 5 + u] is the displacement of the u-th *present* direction in
/// the grid's neighbor order (−x, +x, −y, +y), where bit d of `mask` says
/// whether direction d exists at the agent's node; u ≥ popcount(mask)
/// yields {0,0} (stay). This reproduces Grid2D::neighbors' compaction
/// exactly, so table-driven stepping is bit-identical to walk::step.
[[nodiscard]] constexpr std::array<StepDelta, 16 * 5> make_step_table() noexcept {
    std::array<StepDelta, 16 * 5> table{};
    constexpr StepDelta dirs[4] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
    for (unsigned mask = 0; mask < 16; ++mask) {
        unsigned count = 0;
        for (unsigned d = 0; d < 4; ++d) {
            if (mask & (1U << d)) table[mask * 5 + count++] = dirs[d];
        }
    }
    return table;
}

inline constexpr std::array<StepDelta, 16 * 5> kStepTable = make_step_table();

/// kStepTable widened for the vector move (walk/ensemble.cpp), which
/// reads a grid::Point as one uint64 — x in the low half, y in the high
/// half: entry i is dx + dy·2³² (mod 2⁶⁴), so one 64-bit add moves both
/// coordinates, and a stay adds zero. No carry crosses the halves because
/// no coordinate leaves [0, side).
inline constexpr std::array<std::uint64_t, 16 * 5> kStepTableWide = [] {
    std::array<std::uint64_t, 16 * 5> table{};
    for (std::size_t i = 0; i < table.size(); ++i) {
        table[i] = static_cast<std::uint64_t>(kStepTable[i].dx) +
                   (static_cast<std::uint64_t>(kStepTable[i].dy) << 32);
    }
    return table;
}();

/// A lazy-paper draw that stays at every node: no node has a fifth
/// direction. AgentEnsemble::step_subset gives it to every frozen agent, so
/// that one move pass covers all k agents.
inline constexpr std::uint32_t kStayDraw = 4;
static_assert([] {
    for (unsigned mask = 0; mask < 16; ++mask) {
        if (kStepTableWide[mask * 5 + kStayDraw] != 0) return false;
    }
    return true;
}());

/// Presence mask of the four grid directions at p on a bounded
/// width×height grid; popcount equals the node degree n_v.
[[nodiscard]] constexpr unsigned direction_mask(grid::Point p, grid::Coord width,
                                                grid::Coord height) noexcept {
    return static_cast<unsigned>(p.x > 0) | static_cast<unsigned>(p.x + 1 < width) << 1 |
           static_cast<unsigned>(p.y > 0) << 2 | static_cast<unsigned>(p.y + 1 < height) << 3;
}

/// Performs one step of the selected walk from `p` on `grid`.
template <typename GridT>
[[nodiscard]] inline grid::Point step(const GridT& grid, grid::Point p, rng::Rng& rng,
                                      WalkKind kind = WalkKind::kLazyPaper) noexcept {
    std::array<grid::Point, GridT::kMaxDegree> nbr;  // filled below
    const int deg = grid.neighbors(p, std::span<grid::Point, GridT::kMaxDegree>{nbr});
    switch (kind) {
        case WalkKind::kLazyPaper: {
            // Draw u uniform in {0..4}; u < deg selects a neighbor (each
            // with probability exactly 1/5), otherwise stay.
            const auto u = rng.below(5);
            return u < static_cast<std::uint64_t>(deg) ? nbr[static_cast<std::size_t>(u)] : p;
        }
        case WalkKind::kSimple: {
            const auto u = rng.below(static_cast<std::uint64_t>(deg));
            return nbr[static_cast<std::size_t>(u)];
        }
        case WalkKind::kLazyHalf: {
            const auto u = rng.below(static_cast<std::uint64_t>(2 * deg));
            return u < static_cast<std::uint64_t>(deg) ? nbr[static_cast<std::size_t>(u)] : p;
        }
    }
    return p;  // unreachable
}

/// Probability that the selected walk stays put at `p` (for tests and
/// analytical cross-checks).
template <typename GridT>
[[nodiscard]] inline double stay_probability(const GridT& grid, grid::Point p,
                                             WalkKind kind) noexcept {
    const int deg = grid.degree(p);
    switch (kind) {
        case WalkKind::kLazyPaper: return 1.0 - static_cast<double>(deg) / 5.0;
        case WalkKind::kSimple: return 0.0;
        case WalkKind::kLazyHalf: return 0.5;
    }
    return 0.0;  // unreachable
}

}  // namespace smn::walk
