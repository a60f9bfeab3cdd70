#include "core/gossip.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "core/bounds.hpp"

namespace smn::core {

GossipExchange::GossipExchange(const EngineConfig& config)
    : rumors_{MultiRumorState::one_rumor_per_agent(config.k)},
      known_pairs_{config.k},  // each agent knows its own rumor
      rumor_known_count_(static_cast<std::size_t>(config.k), 1),
      rumor_complete_time_(static_cast<std::size_t>(config.k), -1),
      slot_of_root_(static_cast<std::size_t>(config.k), -1),
      gained_(rumors_.words_per_agent()) {
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

    // Pass 1: one find per linked agent. A component gets the next dense
    // slot when its first member shows up, which copies its row there;
    // later members OR theirs in. A component has >= 2 linked members, so
    // linked.size() / 2 slots always suffice.
    slots_.resize(linked.size());
    slot_roots_.clear();
    if (slot_or_.size() < linked.size() / 2 * words) {
        slot_or_.resize(linked.size() / 2 * words);
    }
    for (std::size_t i = 0; i < linked.size(); ++i) {
        const auto a = linked[i];
        const auto root = dsu.find(a);
        auto& slot = slot_of_root_[static_cast<std::size_t>(root)];
        const auto* row = &rumors_.word(a, 0);
        if (slot < 0) {
            slot = static_cast<std::int32_t>(slot_roots_.size());
            assert(static_cast<std::size_t>(slot + 1) * words <= slot_or_.size());
            slot_roots_.push_back(root);
            std::copy(row, row + words, &slot_or_[static_cast<std::size_t>(slot) * words]);
        } else {
            auto* acc = &slot_or_[static_cast<std::size_t>(slot) * words];
            for (std::size_t w = 0; w < words; ++w) acc[w] |= row[w];
        }
        slots_[i] = slot;
    }

    // Pass 2: merge the union back into every member (merge_row keeps the
    // per-agent knowledge counters, and thus complete(), up to date) and
    // tally the newly learned rumors, stopping once all `gained` bits of
    // the row are seen.
    for (std::size_t i = 0; i < linked.size(); ++i) {
        const std::span<const std::uint64_t> acc{
            &slot_or_[static_cast<std::size_t>(slots_[i]) * words], words};
        auto remaining = rumors_.merge_row(linked[i], acc, gained_);
        known_pairs_ += remaining;
        for (std::size_t w = 0; remaining > 0; ++w) {
            for (auto gained = gained_[w]; gained != 0; gained &= gained - 1) {
                --remaining;
                const auto r = w * 64 + static_cast<std::size_t>(std::countr_zero(gained));
                if (++rumor_known_count_[r] == k && rumor_complete_time_[r] < 0) {
                    rumor_complete_time_[r] = t;
                }
            }
        }
    }

    for (const auto root : slot_roots_) slot_of_root_[static_cast<std::size_t>(root)] = -1;
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
