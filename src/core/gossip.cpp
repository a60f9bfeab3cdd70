#include "core/gossip.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "core/bounds.hpp"
#include "util/simd.hpp"

namespace smn::core {
namespace {

/// Gaining rows between folds: a lane gains at most one per row, and a
/// byte holds 255.
constexpr int kRowsPerFold = 255;
constexpr auto kLanes = static_cast<std::size_t>(util::simd::kBitLanes);

}  // namespace

GossipExchange::GossipExchange(const EngineConfig& config)
    : rumors_{MultiRumorState::one_rumor_per_agent(config.k)},
      known_pairs_{config.k},  // each agent knows its own rumor
      rumor_gain_lanes_(rumors_.words_per_agent() * kLanes, 0),
      rumor_count_(rumors_.words_per_agent() * kLanes, 0),
      gained_words_(rumors_.words_per_agent(), 0),
      rumor_complete_time_(static_cast<std::size_t>(config.k), -1),
      slot_of_root_(static_cast<std::size_t>(config.k), -1),
      gained_(rumors_.words_per_agent()) {
    if (config.mobility == Mobility::kInformedOnly) {
        // "Only informed agents move" has no meaning when every agent
        // knows some rumors and not others.
        throw std::invalid_argument("EngineConfig: frog mobility is defined for broadcast only");
    }
    std::fill_n(rumor_count_.begin(), config.k, 1);  // each rumor's owner knows it
    if (config.k == 1) rumor_complete_time_[0] = 0;
}

void GossipExchange::run(std::span<const std::int32_t> linked, graph::DisjointSets& dsu,
                         std::int64_t t) {
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
    // add each gaining row's new bits to the per-rumor byte lanes. The
    // buffers are read through locals: the byte-lane stores may alias
    // anything, so members would be reloaded for every word.
    const auto* gained_row = gained_.data();
    auto* lanes = rumor_gain_lanes_.data();
    auto* gained_words = gained_words_.data();
    for (std::size_t i = 0; i < linked.size(); ++i) {
        const std::span<const std::uint64_t> acc{
            &slot_or_[static_cast<std::size_t>(slots_[i]) * words], words};
        const auto gained = rumors_.merge_row(linked[i], acc, gained_);
        if (gained == 0) continue;
        known_pairs_ += gained;
        for (std::size_t w = 0; w < words; ++w) {
            util::simd::add_bit_lanes(gained_row[w], lanes + w * kLanes);
            gained_words[w] |= gained_row[w];
        }
        if (++rows_since_fold_ == kRowsPerFold) fold(t);
    }
    fold(t);

    for (const auto root : slot_roots_) slot_of_root_[static_cast<std::size_t>(root)] = -1;
}

void GossipExchange::fold(std::int64_t t) {
    for (std::size_t w = 0; w < gained_words_.size(); ++w) {
        if (gained_words_[w] == 0) continue;
        gained_words_[w] = 0;
        const auto first = w * kLanes;
        for (auto reached = util::simd::fold_byte_lanes(
                 &rumor_gain_lanes_[first], &rumor_count_[first], rumors_.agent_count());
             reached != 0; reached &= reached - 1) {
            rumor_complete_time_[first + static_cast<std::size_t>(std::countr_zero(reached))] = t;
        }
    }
    rows_since_fold_ = 0;
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
