// decode.hpp — block decode of raw RNG words into lazy-paper draws.
//
// The lazy-paper walk consumes one bounded draw u ∈ [0,5) per agent, via
// Lemire's multiply-shift rejection method (rng::Rng::below). This header
// replays pass 1 of that method over a whole block of buffered words at
// once: draw = hi64(word * 5), reject iff lo64(word * 5) < threshold.
//
// Both variants below are *word-exact* replicas of Rng::below(5): same
// draws, same rejection decision per word. decode_draws5() is compiled
// against the configure-time SIMD backend (util/simd.hpp); the _scalar
// variant is always plain C++ and serves as the in-process reference the
// unit tests and microbenches compare against.
//
// Why rejection can be tested with a compare-to-zero: the Lemire
// threshold for bound 5 is (2^64 - 5) mod 5 = 1 (since 2^64 ≡ 1 mod 5),
// so a word is rejected iff lo64(word*5) < 1, i.e. == 0. And because 5 is
// odd (invertible mod 2^64), lo64(word*5) == 0 iff word == 0 — about a
// 2^-64 event per word, handled by falling back to the exact scalar
// BlockRng replay for the whole block (see AgentEnsemble::step_indices).
//
// Why the 64-bit high-multiply needs no mulhi instruction: split
// word = hi·2^32 + lo. Then word·5 = hi5·2^32 + lo5 with hi5 = 5·hi and
// lo5 = 5·lo, both < 2^35, so
//   hi64(word·5) = (hi5 + (lo5 >> 32)) >> 32
// computes exactly in 64-bit lanes using only shifts and adds — all of
// which AVX2 has for 64-bit elements (it lacks a 64×64 multiply).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace smn::walk {

/// Lemire rejection threshold for bound 5: (2^64 - 5) mod 5.
inline constexpr std::uint64_t kLemireThreshold5 = (0 - std::uint64_t{5}) % 5;

/// Reference decode: draws[i] = hi64(words[i] * 5) for i < len. Returns
/// false — leaving draws unusable — iff any word would have been rejected
/// by Rng::below(5).
[[nodiscard]] inline bool decode_draws5_scalar(const std::uint64_t* words, std::size_t len,
                                               std::int32_t* draws) noexcept {
    std::uint64_t rejected = 0;
    for (std::size_t i = 0; i < len; ++i) {
        const auto m =
            static_cast<__uint128_t>(words[i]) * static_cast<__uint128_t>(std::uint64_t{5});
        rejected |= static_cast<std::uint64_t>(static_cast<std::uint64_t>(m) < kLemireThreshold5);
        draws[i] = static_cast<std::int32_t>(m >> 64);
    }
    return rejected == 0;
}

/// As decode_draws5_scalar, through the configure-time SIMD backend.
[[nodiscard]] inline bool decode_draws5(const std::uint64_t* words, std::size_t len,
                                        std::int32_t* draws) noexcept {
#if defined(SMN_SIMD_SCALAR)
    return decode_draws5_scalar(words, len, draws);
#else
    // The compare-to-zero rejection test below is only the Lemire test for
    // bound 5 because the threshold is exactly 1.
    static_assert(kLemireThreshold5 == 1);
    namespace s = util::simd;
    const auto zero = s::U64x4::splat(0);
    const auto lo_mask = s::U64x4::splat(0xFFFFFFFFu);
    auto reject = zero;
    std::size_t i = 0;
    for (; i + s::kU64Lanes <= len; i += s::kU64Lanes) {
        const auto x = s::U64x4::load(words + i);
        // lo64(x*5) == 0 ⇔ rejected (accumulated, resolved once at the end).
        const auto x5lo = s::add(s::shift_left<2>(x), x);
        reject = s::bit_or(reject, s::cmpeq(x5lo, zero));
        // draw = hi64(x*5) via the split-word identity in the header note.
        const auto hi5x = s::shift_right<32>(x);
        const auto lo5x = s::bit_and(x, lo_mask);
        const auto hi5 = s::add(s::shift_left<2>(hi5x), hi5x);
        const auto lo5 = s::add(s::shift_left<2>(lo5x), lo5x);
        const auto draw = s::shift_right<32>(s::add(hi5, s::shift_right<32>(lo5)));
        s::store_narrow(draws + i, draw);
    }
    bool ok = !s::any(reject);
    if (i < len) ok &= decode_draws5_scalar(words + i, len - i, draws + i);
    return ok;
#endif
}

}  // namespace smn::walk
