// xoshiro256.hpp — xoshiro256** pseudo-random generator.
//
// xoshiro256** (Blackman & Vigna 2018) is the workhorse generator of libsmn:
// 256 bits of state, period 2^256 − 1, excellent statistical quality
// (passes BigCrush), and ~1 ns per draw. It satisfies
// std::uniform_random_bit_generator so it can also drive <random>
// distributions if desired, although the smn::rng::Rng facade avoids them
// for cross-platform reproducibility.
#pragma once

#include <array>
#include <cstdint>

#include "rng/splitmix64.hpp"

namespace smn::rng {

/// xoshiro256** generator.
class Xoshiro256StarStar {
public:
    using result_type = std::uint64_t;

    /// Seeds the 256-bit state by running SplitMix64 from `seed`, per the
    /// reference implementation's recommendation. Any 64-bit seed is valid
    /// (the all-zero state cannot arise from SplitMix64 expansion).
    explicit constexpr Xoshiro256StarStar(std::uint64_t seed = 0x5EEDC0DE5EEDC0DEULL) noexcept {
        SplitMix64 sm{seed};
        for (auto& word : state_) word = sm();
    }

    /// Constructs from a full 256-bit state. Precondition: not all zero.
    explicit constexpr Xoshiro256StarStar(const std::array<std::uint64_t, 4>& state) noexcept
        : state_{state} {}

    /// Advances the state and returns the next 64-bit output.
    constexpr std::uint64_t operator()() noexcept { return scramble(next_state_word()); }

    /// Advances the state and returns the next output *before* the `**`
    /// scrambler: the state word s1 it would scramble. Only the xor/shift/
    /// rotate update runs here, so a batched kernel can keep this serial
    /// chain in scalar registers and scramble many words at once in vector
    /// lanes. operator()() == scramble(next_state_word()) by definition.
    constexpr std::uint64_t next_state_word() noexcept {
        const std::uint64_t word = state_[1];
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return word;
    }

    /// The `**` output scrambler, rotl(s1 * 5, 7) * 9. A bijection with
    /// scramble(0) == 0, so an output is 0 iff its state word is.
    [[nodiscard]] static constexpr std::uint64_t scramble(std::uint64_t s1) noexcept {
        return rotl(s1 * 5, 7) * 9;
    }

    /// Equivalent to 2^128 calls to operator(); used to split one seed into
    /// up to 2^128 non-overlapping parallel streams.
    constexpr void jump() noexcept {
        constexpr std::array<std::uint64_t, 4> kJump = {
            0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL,
            0xA9582618E03FC9AAULL, 0x39ABDC4529B1661CULL};
        apply_jump(kJump);
    }

    /// Equivalent to 2^192 calls; for splitting across coarse domains.
    constexpr void long_jump() noexcept {
        constexpr std::array<std::uint64_t, 4> kLongJump = {
            0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL,
            0x77710069854EE241ULL, 0x39109BB02ACBE635ULL};
        apply_jump(kLongJump);
    }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept { return ~std::uint64_t{0}; }

    [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state() const noexcept {
        return state_;
    }

    friend constexpr bool operator==(const Xoshiro256StarStar& a,
                                     const Xoshiro256StarStar& b) noexcept {
        return a.state_ == b.state_;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int s) noexcept {
        return (x << s) | (x >> (64 - s));
    }

    constexpr void apply_jump(const std::array<std::uint64_t, 4>& table) noexcept {
        std::array<std::uint64_t, 4> acc{};
        for (std::uint64_t word : table) {
            for (int bit = 0; bit < 64; ++bit) {
                if (word & (std::uint64_t{1} << bit)) {
                    for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= state_[static_cast<std::size_t>(i)];
                }
                (*this)();
            }
        }
        state_ = acc;
    }

    std::array<std::uint64_t, 4> state_{};
};

}  // namespace smn::rng
