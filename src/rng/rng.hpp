// rng.hpp — the Rng facade used throughout libsmn.
//
// All randomness in the library flows through this class. It wraps
// xoshiro256** and provides exactly the draw primitives the simulators
// need, implemented with explicit algorithms (Lemire bounded ints,
// 53-bit mantissa doubles) so results are bit-identical across platforms
// and standard libraries — std::uniform_int_distribution is NOT
// reproducible across implementations, so we avoid it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace smn::rng {

/// Deterministic random-draw facade over xoshiro256**.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the underlying engine from a single 64-bit seed.
    explicit Rng(std::uint64_t seed = 0xC0FFEE5EEDULL) noexcept : engine_{seed} {}

    /// Raw 64 random bits.
    std::uint64_t next_u64() noexcept { return engine_(); }

    /// uniform_random_bit_generator interface (allows use with std::shuffle
    /// and friends when reproducibility across stdlibs is not required).
    std::uint64_t operator()() noexcept { return engine_(); }
    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept { return ~std::uint64_t{0}; }

    /// Uniform integer in [0, bound), bound >= 1.
    /// Lemire's nearly-divisionless method; unbiased.
    std::uint64_t below(std::uint64_t bound) noexcept;

    /// Uniform integer in the closed range [lo, hi].
    std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

    /// Uniform double in [0, 1) with 53 random mantissa bits.
    double uniform() noexcept {
        return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) noexcept { return uniform() < p; }

    /// Picks a uniformly random element index of a non-empty span.
    template <typename T>
    std::size_t pick_index(std::span<const T> items) noexcept {
        return static_cast<std::size_t>(below(items.size()));
    }

    /// Fisher–Yates shuffle (deterministic given the seed, unlike
    /// std::shuffle whose draw pattern is implementation-defined).
    template <typename T>
    void shuffle(std::span<T> items) noexcept {
        for (std::size_t i = items.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(below(i));
            using std::swap;
            swap(items[i - 1], items[j]);
        }
    }

    /// Samples `count` distinct values from [0, universe) (Floyd's
    /// algorithm for small count, shuffle-prefix otherwise).
    [[nodiscard]] std::vector<std::uint64_t> sample_without_replacement(std::uint64_t universe,
                                                                        std::size_t count);

    /// Returns a new Rng whose stream is decorrelated from this one;
    /// consumes one draw. Useful for handing sub-streams to components.
    [[nodiscard]] Rng split() noexcept { return Rng{mix64(engine_())}; }

private:
    Xoshiro256StarStar engine_;
};

/// Block-buffered draws over an Rng that preserve the exact engine word
/// stream of unbatched use. fill() pre-draws `count` raw words; take() and
/// below() then consume them in order, falling through to the live engine
/// once the buffer is exhausted. Because engine words are generated
/// sequentially either way, any draw pattern that consumes at least
/// `count` words between fills is bit-identical to calling Rng::next_u64 /
/// Rng::below directly — this is the invariant the batched walk kernels
/// rely on to keep all existing seeds reproducible (see docs/performance.md).
class BlockRng {
public:
    /// Pre-draws exactly `count` raw engine words. Any words still buffered
    /// from a previous fill are discarded — callers must consume the whole
    /// block (each agent draws at least once) before refilling.
    void fill(Rng& rng, std::size_t count) {
        buffer_.resize(count);
        for (auto& word : buffer_) word = rng.next_u64();
        cursor_ = 0;
    }

    /// Next raw word: buffered if available, else straight from the engine.
    std::uint64_t take(Rng& rng) noexcept {
        return cursor_ < buffer_.size() ? buffer_[cursor_++] : rng.next_u64();
    }

    /// Uniform integer in [0, bound) — the same Lemire rejection algorithm
    /// as Rng::below, word-for-word, so the consumed stream matches.
    std::uint64_t below(Rng& rng, std::uint64_t bound) noexcept {
        std::uint64_t x = take(rng);
        __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = take(rng);
                m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// The raw words of the current block (for vectorized kernels that
    /// compute draws out-of-band; they must re-enter via below()/take() as
    /// soon as a rejection would occur).
    [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return buffer_; }

private:
    std::vector<std::uint64_t> buffer_;
    std::size_t cursor_{0};
};

/// Derives the seed for replication `rep` of an experiment with base seed
/// `base`. Streams for distinct (base, rep) pairs are decorrelated by two
/// rounds of SplitMix64 mixing.
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t base, std::uint64_t rep) noexcept;

}  // namespace smn::rng
