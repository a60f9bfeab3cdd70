// rng.hpp — the Rng facade used throughout libsmn.
//
// All randomness in the library flows through this class. It wraps
// xoshiro256** and provides exactly the draw primitives the simulators
// need, implemented with explicit algorithms (Lemire bounded ints,
// 53-bit mantissa doubles) so results are bit-identical across platforms
// and standard libraries — std::uniform_int_distribution is NOT
// reproducible across implementations, so we avoid it.
#pragma once

#include <array>
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

    /// Starts the engine at a full xoshiro256 state. Precondition: not all
    /// zero. Lets a test place a chosen word (a zero, say) in the stream.
    explicit Rng(const std::array<std::uint64_t, 4>& state) noexcept : engine_{state} {}

    /// Raw 64 random bits.
    std::uint64_t next_u64() noexcept { return engine_(); }

    /// The next raw word before xoshiro256**'s output scrambler; advances
    /// the engine exactly as next_u64() does, and next_u64() ==
    /// Xoshiro256StarStar::scramble(next_state_word()). For kernels that
    /// scramble in vector lanes (walk::AgentEnsemble).
    std::uint64_t next_state_word() noexcept { return engine_.next_state_word(); }

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

/// Derives the seed for replication `rep` of an experiment with base seed
/// `base`. Streams for distinct (base, rep) pairs are decorrelated by two
/// rounds of SplitMix64 mixing.
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t base, std::uint64_t rep) noexcept;

}  // namespace smn::rng
