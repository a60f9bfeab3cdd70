// colocation.hpp — the standalone r = 0 broadcast, one class over the domain.
//
// k lazy walkers start at uniformly random (open) nodes, agent 0 is the
// source, and after every step each node holding an informed agent informs
// every agent on it. Three checks beyond the paper's bounded grid run this
// process, each on its own domain:
//
//  * Torus2D — the boundary ablation. Lemma 1 handles the grid's boundary
//    with the reflection principle, which changes hitting probabilities
//    only by constants; the torus has no boundary, so T_B on both domains
//    should agree up to a constant near 1 (Claims, E20 part D). Radius
//    queries would need wrap-aware geometry the paper never uses, so the
//    ablation stays at co-location, which is wrap-agnostic.
//  * ObstacleGrid — mobility barriers (the paper's Sec. 4 future work).
//    Agents never enter a blocked node: a wall with a gap squeezes the
//    meeting process through a bottleneck, and a sealed wall splits the
//    system so broadcast never completes beyond the source's side. The
//    exchange stays co-location, so a mobility barrier is also a
//    communication barrier (r > 0 around corners needs a line-of-sight
//    model the paper does not define).
//  * Grid2D with churn (E23) — an open system: each step, each agent is
//    replaced with probability `churn_rate` by one at a uniformly random
//    node. With `reset_knowledge` the newcomer is uninformed, and the rumor
//    goes extinct if every informed agent leaves before meeting anyone;
//    completion then means every *current* agent is informed. Without it
//    the agent only relocates, which mixes positions faster than diffusion
//    and so speeds broadcast up.
//
// The three domains all number nodes y·width + x, so one
// spatial::ColocationTable sized to the domain runs the flood: one pass
// claims the occupied nodes and flags those holding an informed agent, a
// second informs the agents on flagged nodes. The flood draws no
// randomness. The word stream is the placement draws, then per step and
// per agent a churn Bernoulli (only when churn_rate > 0) followed, if the
// agent stays, by its walk draw.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "grid/point.hpp"
#include "rng/rng.hpp"
#include "spatial/colocation_table.hpp"
#include "walk/step.hpp"

namespace smn::models {

/// Parameters of a co-location broadcast; the domain is passed alongside.
struct ColocationConfig {
    std::int32_t k{32};
    std::uint64_t seed{1};
    walk::WalkKind walk{walk::WalkKind::kLazyPaper};
    double churn_rate{0.0};      ///< per-agent per-step replacement probability
    bool reset_knowledge{true};  ///< a replacement arrives uninformed
};

/// How a co-location broadcast run ended.
struct ColocationResult {
    bool completed{false};           ///< every current agent informed
    bool extinct{false};             ///< no informed agent left (churn with reset only)
    std::int64_t steps{0};           ///< T_B, the extinction time, or the cap
    std::int32_t informed_count{0};  ///< informed agents when the run ended
    std::int64_t replacements{0};    ///< churn events
};

/// Single-rumor broadcast with co-location exchange on `Domain`: Grid2D,
/// Torus2D or ObstacleGrid (anything with size, node_id, point_of and
/// neighbors; random_open_node, where present, places the agents).
template <typename Domain>
class ColocationBroadcast {
public:
    /// Places the agents, informs agent 0 and floods at t = 0.
    ColocationBroadcast(Domain domain, const ColocationConfig& config)
        : domain_{std::move(domain)},
          config_{config},
          rng_{config.seed},
          colocation_{domain_.size()} {
        if (config.k < 1) throw std::invalid_argument("ColocationBroadcast: k must be >= 1");
        if (config.churn_rate < 0.0 || config.churn_rate > 1.0) {
            throw std::invalid_argument("ColocationBroadcast: churn_rate must be in [0, 1]");
        }
        positions_.reserve(static_cast<std::size_t>(config.k));
        for (std::int32_t a = 0; a < config.k; ++a) positions_.push_back(random_node());
        informed_.assign(static_cast<std::size_t>(config.k), 0);
        informed_[0] = 1;
        informed_count_ = 1;
        flood();
    }

    /// One synchronized step: every agent is replaced or walks, then the flood.
    void step() {
        ++t_;
        for (std::size_t a = 0; a < positions_.size(); ++a) {
            auto& p = positions_[a];
            if (config_.churn_rate > 0.0 && rng_.bernoulli(config_.churn_rate)) {
                p = random_node();
                ++replacements_;
                if (config_.reset_knowledge && informed_[a] != 0) {
                    informed_[a] = 0;
                    --informed_count_;
                }
            } else {
                p = walk::step(domain_, p, rng_, config_.walk);
            }
        }
        flood();
    }

    [[nodiscard]] bool complete() const noexcept { return informed_count_ == config_.k; }
    [[nodiscard]] bool extinct() const noexcept { return informed_count_ == 0; }
    [[nodiscard]] std::int32_t informed_count() const noexcept { return informed_count_; }
    [[nodiscard]] bool is_informed(std::int32_t a) const noexcept {
        return informed_[static_cast<std::size_t>(a)] != 0;
    }
    [[nodiscard]] grid::Point position(std::int32_t a) const noexcept {
        return positions_[static_cast<std::size_t>(a)];
    }

    /// Steps until completion, extinction or `max_steps`.
    [[nodiscard]] ColocationResult run(std::int64_t max_steps) {
        while (!complete() && !extinct() && t_ < max_steps) step();
        return ColocationResult{
            .completed = complete(),
            .extinct = extinct(),
            .steps = t_,
            .informed_count = informed_count_,
            .replacements = replacements_,
        };
    }

private:
    [[nodiscard]] grid::Point random_node() {
        if constexpr (requires { domain_.random_open_node(rng_); }) {
            return domain_.random_open_node(rng_);
        } else {
            return domain_.point_of(
                static_cast<grid::NodeId>(rng_.below(static_cast<std::uint64_t>(domain_.size()))));
        }
    }

    /// Informs every agent that shares a node with an informed agent.
    void flood() {
        const auto pass = colocation_.begin_pass();
        for (std::size_t a = 0; a < positions_.size(); ++a) {
            const auto node = domain_.node_id(positions_[a]);
            (void)pass.claim(node, static_cast<std::int32_t>(a));
            if (informed_[a] != 0) pass.flag(node);
        }
        for (std::size_t a = 0; a < positions_.size(); ++a) {
            if (informed_[a] == 0 && pass.flagged(domain_.node_id(positions_[a]))) {
                informed_[a] = 1;
                ++informed_count_;
            }
        }
    }

    Domain domain_;
    ColocationConfig config_;
    rng::Rng rng_;
    std::vector<grid::Point> positions_;
    std::vector<std::uint8_t> informed_;
    std::int32_t informed_count_{0};
    std::int64_t replacements_{0};
    std::int64_t t_{0};
    spatial::ColocationTable colocation_;  ///< over the domain's node ids
};

}  // namespace smn::models
