#include "core/gossip.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/bounds.hpp"

namespace smn::core {

GossipExchange::GossipExchange(const EngineConfig& config)
    : rumors_{MultiRumorState::one_rumor_per_agent(config.k)},
      known_pairs_{config.k},  // each agent knows its own rumor
      rumor_known_count_(static_cast<std::size_t>(config.k), 1),
      rumor_complete_time_(static_cast<std::size_t>(config.k), -1),
      component_or_(static_cast<std::size_t>(config.k) * rumors_.words_per_agent(), 0) {
    if (config.mobility == Mobility::kInformedOnly) {
        // "Only informed agents move" has no meaning when every agent
        // knows some rumors and not others.
        throw std::invalid_argument("EngineConfig: frog mobility is defined for broadcast only");
    }
    if (config.k == 1) rumor_complete_time_[0] = 0;
}

void GossipExchange::run(std::span<const std::int32_t> linked, graph::DisjointSets& dsu,
                         std::int64_t t) {
    const auto k = rumors_.agent_count();
    const auto words = rumors_.words_per_agent();

    // Pass 1: one find per linked agent (labels_ remembers it for pass 2),
    // ORing the rumor sets of each component into its root's slot.
    labels_.resize(linked.size());
    touched_roots_.clear();
    for (std::size_t i = 0; i < linked.size(); ++i) {
        const auto a = linked[i];
        const auto root = dsu.find(a);
        labels_[i] = root;
        auto* acc = &component_or_[static_cast<std::size_t>(root) * words];
        if (root == a) touched_roots_.push_back(root);  // every set has its root as a member
        for (std::size_t w = 0; w < words; ++w) acc[w] |= rumors_.word(a, w);
    }

    // Pass 2: distribute the union back to every member and account for
    // newly learned rumors (merge_word keeps the per-agent knowledge
    // counters — and thus MultiRumorState::complete() — up to date).
    for (std::size_t i = 0; i < linked.size(); ++i) {
        const auto a = linked[i];
        const auto* acc = &component_or_[static_cast<std::size_t>(labels_[i]) * words];
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t gained = rumors_.merge_word(a, w, acc[w]);
            if (gained == 0) continue;
            known_pairs_ += std::popcount(gained);
            while (gained != 0) {
                const int bit = std::countr_zero(gained);
                gained &= gained - 1;
                const auto r = static_cast<std::size_t>(w * 64 + static_cast<std::size_t>(bit));
                if (++rumor_known_count_[r] == k && rumor_complete_time_[r] < 0) {
                    rumor_complete_time_[r] = t;
                }
            }
        }
    }

    // Clear the accumulator slots we used (only the roots we touched).
    for (const auto root : touched_roots_) {
        auto* acc = &component_or_[static_cast<std::size_t>(root) * words];
        std::fill(acc, acc + words, std::uint64_t{0});
    }
}

GossipResult run_gossip(const EngineConfig& config, std::int64_t max_steps) {
    GossipResult result;
    result.config = config;
    const std::int64_t cap =
        max_steps >= 0 ? max_steps : bounds::default_max_steps(config.n(), config.k);

    GossipProcess process{config};
    const auto tg = process.run_until_complete(cap);
    result.completed = tg.has_value();
    result.gossip_time = tg.value_or(-1);

    if (result.completed) {
        std::int64_t max_tb = -1;
        std::int64_t min_tb = -1;
        double sum = 0.0;
        for (std::int32_t r = 0; r < config.k; ++r) {
            const auto tb = process.rumor_broadcast_time(r);
            max_tb = std::max(max_tb, tb);
            min_tb = min_tb < 0 ? tb : std::min(min_tb, tb);
            sum += static_cast<double>(tb);
        }
        result.max_rumor_broadcast_time = max_tb;
        result.min_rumor_broadcast_time = min_tb;
        result.mean_rumor_broadcast_time = sum / static_cast<double>(config.k);
    }
    return result;
}

}  // namespace smn::core
