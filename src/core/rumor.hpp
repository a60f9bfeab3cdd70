// rumor.hpp — rumor knowledge state.
//
// Two representations, matching the paper's two problems:
//
//  * SingleRumor      — broadcast (Sec. 3): one bit per agent plus the
//                       first-informed time, enough for T_B and for every
//                       recorder.
//  * MultiRumorState  — gossip (Corollary 2): a bitset of rumors per agent
//                       (M_a(t) in the paper). Component exchange ORs the
//                       bitsets of all members — "within the same connected
//                       component agents exchange all rumors they are
//                       informed of". Rumor sets only grow (agents never
//                       forget), which tests assert as an invariant.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "util/simd.hpp"

namespace smn::core {

/// Knowledge state for a single rumor over k agents.
class SingleRumor {
public:
    /// All agents uninformed except `source`, informed at time 0.
    SingleRumor(std::int32_t agent_count, std::int32_t source)
        : informed_(static_cast<std::size_t>(agent_count), 0),
          informed_time_(static_cast<std::size_t>(agent_count), -1) {
        assert(source >= 0 && source < agent_count);
        informed_[static_cast<std::size_t>(source)] = 1;
        informed_time_[static_cast<std::size_t>(source)] = 0;
        informed_count_ = 1;
    }

    [[nodiscard]] std::int32_t agent_count() const noexcept {
        return static_cast<std::int32_t>(informed_.size());
    }

    [[nodiscard]] bool is_informed(std::int32_t a) const noexcept {
        return informed_[static_cast<std::size_t>(a)] != 0;
    }

    /// Number of informed agents.
    [[nodiscard]] std::int32_t informed_count() const noexcept { return informed_count_; }

    /// True when every agent knows the rumor.
    [[nodiscard]] bool all_informed() const noexcept {
        return informed_count_ == agent_count();
    }

    /// Time agent `a` first learned the rumor; −1 if still uninformed.
    [[nodiscard]] std::int64_t informed_time(std::int32_t a) const noexcept {
        return informed_time_[static_cast<std::size_t>(a)];
    }

    /// Marks `a` informed at time `t` (no-op if already informed).
    void inform(std::int32_t a, std::int64_t t) noexcept {
        auto& flag = informed_[static_cast<std::size_t>(a)];
        if (!flag) {
            flag = 1;
            informed_time_[static_cast<std::size_t>(a)] = t;
            ++informed_count_;
        }
    }

    /// Raw byte flags (index = agent id); Frog mobility copies them.
    [[nodiscard]] std::span<const std::uint8_t> flags() const noexcept { return informed_; }

private:
    std::vector<std::uint8_t> informed_;
    std::vector<std::int64_t> informed_time_;
    std::int32_t informed_count_{0};
};

/// Knowledge state for m distinct rumors over k agents (gossip).
/// Stored as one m-bit bitset per agent in 64-bit words. Mutation goes
/// through merge_word() (one word) or merge_row() (a whole row), which
/// keep per-agent knowledge counts and a done-agent counter incrementally
/// up to date, so knowledge_count() and the gossip termination check
/// complete() are O(1) instead of rescanning k · words_per_agent bits.
class MultiRumorState {
public:
    /// Agent `a` starts knowing exactly rumor `a` when m == k and
    /// initial_owner(i) == i; the general form assigns rumor i to agent
    /// owners[i].
    MultiRumorState(std::int32_t agent_count, std::span<const std::int32_t> owners)
        : agent_count_{agent_count},
          rumor_count_{static_cast<std::int32_t>(owners.size())},
          words_per_agent_{(static_cast<std::size_t>(owners.size()) + 63) / 64},
          bits_(static_cast<std::size_t>(agent_count) * words_per_agent_, 0),
          known_count_(static_cast<std::size_t>(agent_count), 0) {
        assert(agent_count >= 1);
        for (std::size_t r = 0; r < owners.size(); ++r) {
            assert(owners[r] >= 0 && owners[r] < agent_count);
            mutable_word(owners[r], r / 64) |= std::uint64_t{1} << (r % 64);
        }
        for (std::int32_t a = 0; a < agent_count_; ++a) {
            auto& count = known_count_[static_cast<std::size_t>(a)];
            for (std::size_t w = 0; w < words_per_agent_; ++w) {
                count += std::popcount(word(a, w));
            }
            if (count == rumor_count_) ++done_agents_;
        }
    }

    /// Gossip initial condition of the paper: k agents, k rumors, rumor i
    /// held by agent i.
    static MultiRumorState one_rumor_per_agent(std::int32_t agent_count) {
        std::vector<std::int32_t> owners(static_cast<std::size_t>(agent_count));
        for (std::int32_t i = 0; i < agent_count; ++i) owners[static_cast<std::size_t>(i)] = i;
        return MultiRumorState{agent_count, owners};
    }

    [[nodiscard]] std::int32_t agent_count() const noexcept { return agent_count_; }
    [[nodiscard]] std::int32_t rumor_count() const noexcept { return rumor_count_; }
    [[nodiscard]] std::size_t words_per_agent() const noexcept { return words_per_agent_; }

    [[nodiscard]] bool knows(std::int32_t a, std::int32_t rumor) const noexcept {
        return (word(a, static_cast<std::size_t>(rumor) / 64) >>
                (static_cast<std::size_t>(rumor) % 64)) &
               1;
    }

    /// Number of rumors agent `a` knows; O(1) (incremental counter).
    [[nodiscard]] std::int32_t knowledge_count(std::int32_t a) const noexcept {
        return known_count_[static_cast<std::size_t>(a)];
    }

    /// True when agent `a` knows every rumor; O(1).
    [[nodiscard]] bool knows_all(std::int32_t a) const noexcept {
        return knowledge_count(a) == rumor_count_;
    }

    /// Number of agents that know every rumor; O(1).
    [[nodiscard]] std::int32_t done_agents() const noexcept { return done_agents_; }

    /// True when every agent knows every rumor (the gossip termination
    /// condition: T_G); O(1) via the incremental done-agent counter.
    [[nodiscard]] bool complete() const noexcept { return done_agents_ == agent_count_; }

    [[nodiscard]] const std::uint64_t& word(std::int32_t a, std::size_t w) const noexcept {
        return bits_[static_cast<std::size_t>(a) * words_per_agent_ + w];
    }

    /// ORs `incoming` into word `w` of agent `a`'s bitset, maintaining the
    /// knowledge counters, and returns the newly gained bits. merge_word()
    /// and merge_row() are the only mutation paths, which is what keeps
    /// complete() O(1).
    std::uint64_t merge_word(std::int32_t a, std::size_t w, std::uint64_t incoming) noexcept {
        auto& mine = mutable_word(a, w);
        const std::uint64_t gained = incoming & ~mine;
        if (gained != 0) {
            mine |= incoming;
            gain(a, std::popcount(gained));
        }
        return gained;
    }

    /// merge_word() over agent `a`'s whole row: ORs `incoming`
    /// (words_per_agent() words) into it four words per SIMD op, writes
    /// the newly gained bits to `gained` (same length, every word
    /// written) and returns how many there are. The counters are updated
    /// once for the row.
    std::int32_t merge_row(std::int32_t a, std::span<const std::uint64_t> incoming,
                           std::span<std::uint64_t> gained) noexcept {
        namespace simd = util::simd;
        assert(incoming.size() == words_per_agent_ && gained.size() == words_per_agent_);
        auto* mine = &mutable_word(a, 0);
        const auto* in = incoming.data();
        auto* out = gained.data();
        auto any = simd::U64x4::splat(0);
        std::size_t w = 0;
        for (; w + simd::kU64Lanes <= words_per_agent_; w += simd::kU64Lanes) {
            const auto cur = simd::U64x4::load(mine + w);
            const auto inc = simd::U64x4::load(in + w);
            const auto g = simd::and_not(inc, cur);
            g.store(out + w);
            simd::bit_or(cur, inc).store(mine + w);
            any = simd::bit_or(any, g);
        }
        std::uint64_t tail = 0;
        for (; w < words_per_agent_; ++w) {
            out[w] = in[w] & ~mine[w];
            mine[w] |= in[w];
            tail |= out[w];
        }
        if (tail == 0 && !simd::any(any)) return 0;
        int count = 0;
        for (std::size_t i = 0; i < words_per_agent_; ++i) count += std::popcount(out[i]);
        gain(a, count);
        return count;
    }

private:
    [[nodiscard]] std::uint64_t& mutable_word(std::int32_t a, std::size_t w) noexcept {
        return bits_[static_cast<std::size_t>(a) * words_per_agent_ + w];
    }

    /// Agent `a` learned `rumors` (> 0) new rumors.
    void gain(std::int32_t a, int rumors) noexcept {
        auto& count = known_count_[static_cast<std::size_t>(a)];
        count += rumors;
        if (count == rumor_count_) ++done_agents_;
    }

    std::int32_t agent_count_;
    std::int32_t rumor_count_;
    std::size_t words_per_agent_;
    std::vector<std::uint64_t> bits_;
    std::vector<std::int32_t> known_count_;  ///< agent -> #rumors known
    std::int32_t done_agents_{0};            ///< #agents knowing every rumor
};

}  // namespace smn::core
