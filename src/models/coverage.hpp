// coverage.hpp — coverage and cover-time processes (Sec. 4 by-products).
//
// Two related quantities:
//
//  * cover time of k independent walks — first time every grid node has
//    been visited by at least one of k walks (no rumors involved). The
//    paper's techniques give the h.p. bound O((n log²n)/k + n log n),
//    improving [2, 12] from expectation to high probability.
//
//  * coverage time T_C — first time every node has been visited by an
//    *informed* agent during a broadcast. The paper argues T_C ≈ T_B in
//    both the dynamic and the Frog model. Implemented by feeding a
//    BroadcastProcess's state to CoverageObserver after every step.
#pragma once

#include <cstdint>
#include <optional>

#include "core/engine.hpp"
#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "walk/step.hpp"

namespace smn::models {

/// Result of a k-walk cover-time run.
struct CoverResult {
    bool covered{false};
    std::int64_t cover_time{-1};      ///< first t with all nodes visited
    std::int64_t covered_nodes{0};    ///< nodes visited by the cap
};

/// Simulates k independent walks from uniform starts until the grid is
/// covered or `max_steps` (−1 → generous default ∝ n·log²n/k + n·log n).
[[nodiscard]] CoverResult run_cover_time(grid::Coord side, std::int32_t k, std::uint64_t seed,
                                         std::int64_t max_steps = -1,
                                         walk::WalkKind walk = walk::WalkKind::kLazyPaper);

/// Result of a broadcast run instrumented for coverage.
struct BroadcastCoverageResult {
    bool broadcast_completed{false};
    std::int64_t broadcast_time{-1};  ///< T_B
    bool covered{false};
    std::int64_t coverage_time{-1};   ///< T_C (−1 if cap hit first)
};

/// Runs a broadcast and keeps stepping (after T_B) until informed agents
/// have visited every node, reporting both T_B and T_C.
[[nodiscard]] BroadcastCoverageResult run_broadcast_with_coverage(
    const core::EngineConfig& config, std::int64_t max_steps = -1);

}  // namespace smn::models
