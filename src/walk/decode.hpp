// decode.hpp — lane-wise decode of engine words into lazy-paper draws.
//
// The lazy-paper walk consumes one bounded draw u ∈ [0,5) per agent, via
// Lemire's multiply-shift rejection method (rng::Rng::below). The walk
// kernel (AgentEnsemble, walk/ensemble.cpp) replays pass 1 of that method
// four words per 64-bit vector, on words that never leave registers: it
// runs only xoshiro256**'s serial state update in scalar code
// (rng::Rng::next_state_word), assembles the pre-scramble words into
// U64x4 lanes, and applies the `**` scrambler (scramble below) and the
// decode (draw5 below) lane-wise. Both are *word-exact* replicas of
// Rng::next_u64 and of pass 1 of Rng::below(5): same words, same draws.
//
// Why rejection can be tested with a compare-to-zero: the Lemire
// threshold for bound 5 is (2^64 - 5) mod 5 = 1 (since 2^64 ≡ 1 mod 5),
// so a word is rejected iff lo64(word*5) < 1, i.e. == 0. And because 5 is
// odd (invertible mod 2^64), lo64(word*5) == 0 iff word == 0 — about a
// 2^-64 event per word. The kernel then redraws the rest of that block
// with Rng::below(5) itself (see AgentEnsemble::draw_lazy).
//
// Why the 64-bit high-multiply needs no mulhi instruction: split
// word = hi·2^32 + lo. Then word·5 = hi5·2^32 + lo5 with hi5 = 5·hi and
// lo5 = 5·lo, both < 2^35, so
//   hi64(word·5) = (hi5 + (lo5 >> 32)) >> 32
// computes exactly in 64-bit lanes using only shifts and adds — all of
// which AVX2 has for 64-bit elements (it lacks a 64×64 multiply). The
// scrambler's multiplies by 5 and 9 are shift-and-adds for the same
// reason.
#pragma once

#include <cstdint>

#include "rng/rng.hpp"
#include "util/simd.hpp"

namespace smn::walk {

/// Lemire rejection threshold for bound 5: (2^64 - 5) mod 5.
inline constexpr std::uint64_t kLemireThreshold5 = (0 - std::uint64_t{5}) % 5;
// A word is rejected iff it is 0 only because the threshold is exactly 1.
static_assert(kLemireThreshold5 == 1);

/// Lane-wise rng::Xoshiro256StarStar::scramble: rotl(s1 * 5, 7) * 9 per lane.
[[nodiscard]] inline util::simd::U64x4 scramble(util::simd::U64x4 s1) noexcept {
    namespace s = util::simd;
    const auto x5 = s::add(s::shift_left<2>(s1), s1);
    const auto rot = s::bit_or(s::shift_left<7>(x5), s::shift_right<57>(x5));
    return s::add(s::shift_left<3>(rot), rot);
}

/// Lane-wise hi64(word * 5): the draw Rng::below(5) returns for a word it
/// does not reject (every word but 0).
[[nodiscard]] inline util::simd::U64x4 draw5(util::simd::U64x4 word) noexcept {
    namespace s = util::simd;
    const auto hi = s::shift_right<32>(word);
    const auto lo = s::bit_and(word, s::U64x4::splat(0xFFFFFFFFu));
    const auto hi5 = s::add(s::shift_left<2>(hi), hi);
    const auto lo5 = s::add(s::shift_left<2>(lo), lo);
    return s::shift_right<32>(s::add(hi5, s::shift_right<32>(lo5)));
}

/// Scalar draw5, for the agents past a block's last whole chunk.
[[nodiscard]] inline std::int32_t draw5(std::uint64_t word) noexcept {
    return static_cast<std::int32_t>(
        (static_cast<__uint128_t>(word) * static_cast<__uint128_t>(std::uint64_t{5})) >> 64);
}

/// The next four engine words, as next_u64() would return them, in lanes
/// 0–3 in stream order. Only the state update runs in scalar registers.
[[nodiscard]] inline util::simd::U64x4 next_words4(rng::Rng& engine) noexcept {
    // One statement per word: argument evaluation order is unspecified.
    const auto w0 = engine.next_state_word();
    const auto w1 = engine.next_state_word();
    const auto w2 = engine.next_state_word();
    const auto w3 = engine.next_state_word();
    return scramble(util::simd::U64x4::set(w0, w1, w2, w3));
}

}  // namespace smn::walk
