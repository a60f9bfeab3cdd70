// torus_broadcast.hpp — the boundary-effect ablation.
//
// The paper's Lemma 1 handles grid boundaries with the reflection
// principle: restricting walks to the bounded grid changes hitting
// probabilities only by constants, so boundaries do not affect the
// Θ̃(n/√k) law. This model provides the direct system-level check: the
// same broadcast process on a TORUS (no boundary at all). The ablation
// claim test (E20 part D) compares T_B on both domains — the paper's
// argument predicts agreement up to a constant close to 1.
//
// Co-location exchange (r = 0) only: radius queries on a torus need
// wrap-aware geometry that the paper never uses (its domain is bounded),
// so we keep the ablation to the regime where co-location is
// wrap-agnostic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "spatial/colocation_table.hpp"
#include "walk/step.hpp"

namespace smn::models {

/// Parameters of a torus broadcast (r = 0).
struct TorusConfig {
    grid::Coord side{48};
    std::int32_t k{32};
    std::uint64_t seed{1};
    walk::WalkKind walk{walk::WalkKind::kLazyPaper};
};

/// Result of a torus broadcast run.
struct TorusResult {
    bool completed{false};
    std::int64_t broadcast_time{-1};
};

/// Single-rumor broadcast on the torus with co-location exchange.
class TorusBroadcast {
public:
    explicit TorusBroadcast(const TorusConfig& config);

    void step();
    [[nodiscard]] bool complete() const noexcept { return informed_count_ == config_.k; }
    [[nodiscard]] std::int64_t time() const noexcept { return t_; }
    [[nodiscard]] std::int32_t informed_count() const noexcept { return informed_count_; }

    std::optional<std::int64_t> run_until_complete(std::int64_t max_steps);

private:
    void exchange();

    TorusConfig config_;
    rng::Rng rng_;
    grid::Torus2D torus_;
    std::vector<grid::Point> positions_;
    std::vector<std::uint8_t> informed_;
    std::int32_t informed_count_{0};
    std::int64_t t_{0};
    spatial::ColocationTable colocation_;  ///< over the torus's node ids
};

/// Convenience driver; max_steps = −1 uses a generous default.
[[nodiscard]] TorusResult run_torus_broadcast(const TorusConfig& config,
                                              std::int64_t max_steps = -1);

}  // namespace smn::models
