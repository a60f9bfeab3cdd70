// gossip.hpp — the gossip (all-to-all) problem of Corollary 2.
//
// At t = 0 each of the k agents holds a distinct rumor; the gossip time
// T_G is the first time every agent knows every rumor. The exchange rule
// is the same component flooding as broadcast, applied to rumor *sets*:
// after the step, every member of a component C holds ∪_{a∈C} M_a(t−1).
// Corollary 2: T_G = Õ(n/√k) — the same scale as a single broadcast,
// because all k rumors ride the same meetings.
//
// GossipProcess is the broadcast engine's DisseminationLoop (engine.hpp)
// with GossipExchange as its knowledge state: the same walks, G_t(r),
// phase timing, counters, step trace and registry flush, so
// smn_lab --scenario=gossip --trace/--counters reports the engine like
// any broadcast run. The trace's `informed` gauge counts the agents that
// know every rumor. Frog mobility is rejected ("only informed agents
// move" has no meaning for rumor sets), and view() is broadcast-only.
//
// GossipProcess also reports per-rumor broadcast times, so one gossip run
// yields k correlated samples of T_B (the gossip lab scenario reports
// their mean and minimum next to T_G).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/rumor.hpp"
#include "graph/dsu.hpp"

namespace smn::core {

/// Gossip's knowledge state and exchange: one rumor per agent initially
/// (MultiRumorState), each component ORing its members' rumor sets, plus
/// per-rumor knowledge counts and completion times.
class GossipExchange {
public:
    explicit GossipExchange(const EngineConfig& config);

    /// Every agent knows every rumor.
    [[nodiscard]] bool complete() const noexcept { return rumors_.complete(); }
    /// Agents that know every rumor.
    [[nodiscard]] std::int32_t done_agents() const noexcept { return rumors_.done_agents(); }
    /// The rumor sets M_a(t).
    [[nodiscard]] const MultiRumorState& rumors() const noexcept { return rumors_; }

    /// First time rumor `r` was known by all agents; −1 if not yet.
    [[nodiscard]] std::int64_t rumor_broadcast_time(std::int32_t r) const noexcept {
        return rumor_complete_time_[static_cast<std::size_t>(r)];
    }

    /// Number of (agent, rumor) pairs currently known — monotone, reaches
    /// k² at completion.
    [[nodiscard]] std::int64_t known_pairs() const noexcept { return known_pairs_; }

protected:
    /// Merges the rumor sets of each component of `dsu`; `linked` lists
    /// the members of its non-singleton components.
    void run(std::span<const std::int32_t> linked, graph::DisjointSets& dsu, std::int64_t t);

private:
    MultiRumorState rumors_;
    std::int64_t known_pairs_;
    std::vector<std::int32_t> rumor_known_count_;     ///< per rumor: #agents knowing it
    std::vector<std::int64_t> rumor_complete_time_;   ///< per rumor: completion time
    std::vector<std::int32_t> slot_of_root_;          ///< root -> its slot; all −1 between runs
    std::vector<std::int32_t> slot_roots_;            ///< scratch: slot -> root
    std::vector<std::int32_t> slots_;                 ///< scratch: slots of the linked agents
    std::vector<std::uint64_t> slot_or_;              ///< scratch: (slots × words) OR accumulator
    std::vector<std::uint64_t> gained_;               ///< scratch: one merge_row's gained words
};

/// Multi-rumor dissemination process (one rumor per agent initially).
/// Same config and validation as broadcast, except that
/// Mobility::kInformedOnly is rejected; `config.source` is otherwise
/// ignored (every agent is a source of its own rumor).
using GossipProcess = DisseminationLoop<GossipExchange>;

/// Result of one gossip replication.
struct GossipResult {
    bool completed{false};
    std::int64_t gossip_time{-1};                 ///< T_G; −1 if the cap was hit
    std::int64_t max_rumor_broadcast_time{-1};    ///< max_m T_B^m (== T_G when completed)
    std::int64_t min_rumor_broadcast_time{-1};    ///< fastest rumor's broadcast time
    double mean_rumor_broadcast_time{0.0};        ///< average over rumors
    EngineConfig config;
};

/// Runs a single gossip replication; max_steps = −1 uses the same default
/// cap as broadcast.
[[nodiscard]] GossipResult run_gossip(const EngineConfig& config, std::int64_t max_steps = -1);

}  // namespace smn::core
