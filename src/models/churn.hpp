// churn.hpp — broadcast under agent churn (robustness extension).
//
// Real mobile fleets (vehicles on a highway segment, animals crossing a
// reserve boundary) are open systems: agents leave and fresh agents
// arrive. We model churn as per-step replacement: each agent is
// independently replaced with probability `churn_rate` by a new agent at a
// uniformly random node. Two variants:
//
//  * reset_knowledge = true  — the replacement is uninformed (the
//    departing agent takes its knowledge with it). The rumor can go
//    EXTINCT if every informed agent churns before meeting anyone; the
//    broadcast becomes a survival race. (Termination: all *current*
//    agents informed, the natural reading for an open system.)
//  * reset_knowledge = false — pure relocation (an agent teleports but
//    keeps its knowledge). Teleportation mixes positions faster than
//    diffusion, so moderate churn *accelerates* broadcast — an
//    instructive contrast measured by the churn lab scenario (E23).
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

/// Parameters of a churned broadcast.
struct ChurnConfig {
    grid::Coord side{48};
    std::int32_t k{32};
    double churn_rate{0.001};     ///< per-agent per-step replacement probability
    bool reset_knowledge{true};   ///< replacement arrives uninformed
    std::uint64_t seed{1};
    walk::WalkKind walk{walk::WalkKind::kLazyPaper};
};

/// Result of a churned broadcast run.
struct ChurnResult {
    bool completed{false};
    bool extinct{false};              ///< rumor died out (reset_knowledge only)
    std::int64_t broadcast_time{-1};  ///< time all current agents were informed
    std::int64_t extinction_time{-1};
    std::int64_t replacements{0};     ///< total churn events
};

/// Single-rumor broadcast (r = 0) with per-step agent replacement.
class ChurnBroadcast {
public:
    explicit ChurnBroadcast(const ChurnConfig& config);

    void step();
    [[nodiscard]] bool complete() const noexcept { return informed_count_ == config_.k; }
    [[nodiscard]] bool extinct() const noexcept { return informed_count_ == 0; }
    [[nodiscard]] std::int64_t time() const noexcept { return t_; }
    [[nodiscard]] std::int32_t informed_count() const noexcept { return informed_count_; }
    [[nodiscard]] std::int64_t replacements() const noexcept { return replacements_; }

    /// Runs until completion, extinction, or the cap.
    [[nodiscard]] ChurnResult run(std::int64_t max_steps);

private:
    void exchange();

    ChurnConfig config_;
    rng::Rng rng_;
    grid::Grid2D grid_;
    std::vector<grid::Point> positions_;
    std::vector<std::uint8_t> informed_;
    std::int32_t informed_count_{0};
    std::int64_t replacements_{0};
    std::int64_t t_{0};
    spatial::ColocationTable colocation_;
};

/// Convenience driver.
[[nodiscard]] ChurnResult run_churn_broadcast(const ChurnConfig& config,
                                              std::int64_t max_steps);

}  // namespace smn::models
