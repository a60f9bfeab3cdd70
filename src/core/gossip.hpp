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
// their mean and minimum next to T_G). They are exact: a step's newly
// learned (agent, rumor) pairs are counted in one byte lane per rumor,
// and the lanes are folded into the per-rumor counts once per step.
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
/// per-rumor knowledge counts (tallied once per step) and exact
/// completion times.
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
    /// Adds the per-rumor byte lanes of the words some row gained since
    /// the last fold into the rumors' counts, stamps `t` on each rumor
    /// that just reached k, and zeroes those lanes.
    void fold(std::int64_t t);

    MultiRumorState rumors_;
    std::int64_t known_pairs_;
    // The per-rumor tally: each gaining row adds its gained bits to one
    // byte lane per rumor (a branch-free expand); fold() widens the lanes
    // into the counts at the end of every run(), and after every 255
    // gaining rows so that no lane wraps. Both are padded to whole words.
    std::vector<std::uint8_t> rumor_gain_lanes_;      ///< per rumor: gains since the last fold
    std::vector<std::int32_t> rumor_count_;           ///< per rumor: agents knowing it, at the fold
    std::vector<std::uint64_t> gained_words_;         ///< per word: OR of the rows since the fold
    int rows_since_fold_{0};                          ///< gaining rows since the last fold
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
